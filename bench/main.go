// Command bench is the repository's pipeline benchmark: simulated packets
// in, queryable flow rows out. One invocation runs one workload in this
// process, verifies what the pipeline answered, prints every metric by name
// and unit, and ends with one JSON line; `all`, `compare` and `selfcheck`
// build sets of such runs and judge them against the bounds in
// BENCHMARK.json. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const usage = `usage:
  bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      run one workload; the last line of standard output is the result JSON
  bench all [--seeds N] [--seconds S] [--out FILE]
      run every workload N times untraced and once traced, each run in its
      own process, and write the set
  bench compare A.json B.json
      judge set B against set A, one row per (metric, workload)
  bench selfcheck [--seeds N] [--seconds S]
      run two sets of this build and fail if any cell disagrees beyond its bound
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "all":
		err = cmdAll(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "selfcheck":
		err = cmdSelfcheck(os.Args[2:])
	default:
		err = cmdRun(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed verification: the result is
// still printed, and the exit code is non-zero.
var errIncorrect = errors.New("verification failed")

// rootDir finds the checkout root — the directory holding BENCHMARK.json —
// from the working directory or its parent (tests run inside bench/).
func rootDir() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in the working directory or its parent")
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; feeds scenario.Export's seed and nothing else")
	seconds := fs.Float64("seconds", 60, "how long the run measures")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q\n%s", fs.Arg(0), usage)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	traceDir := ""
	if *traced != 0 {
		root, err := rootDir()
		if err != nil {
			return err
		}
		traceDir = filepath.Join(root, "bench", "out")
	}
	res, err := runWorkload(w, *seed, *seconds, traceDir, os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, errIncorrect) {
		return err
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	return err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload drives one workload for about the given seconds and returns
// its result. The human-readable report goes to out; progress and failures
// go to log. A non-empty traceDir makes it a traced run: spans are recorded,
// the per-layer metrics are reported, and the spans are written there.
func runWorkload(w workload, seed int64, seconds float64, traceDir string, out, log io.Writer) (result, error) {
	traced := traceDir != ""
	r := &runner{
		w:      w,
		seed:   seed,
		budget: time.Duration(seconds * float64(time.Second)),
		log:    log,
		cal:    newCalibrator(),
		probes: probes{},
	}
	if traced {
		r.rec = newRecorder(fmt.Sprintf("%s-seed%d", w.name, seed))
	}
	if err := r.run(); err != nil {
		return result{}, err
	}
	defs, values := endToEnd, r.endToEndValues()
	if traced {
		defs, values = perLayer, r.perLayerValues()
		if err := r.rec.write(filepath.Join(traceDir, "trace-"+w.name+".json"), w.name, seed); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
	}
	res, err := newResult(defs, values, r.attempted, r.failed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v: %d operations attempted, %d failed\n", w.name, seed, seconds, traced, r.attempted, r.failed)
	r.report(out, defs, values)
	for _, st := range r.stages {
		fmt.Fprintf(out, "stage %-10s used %6.2f s of a %4.0f%% share\n", st.name, st.used.Seconds(), st.share*100)
	}
	if !res.Correct {
		return res, fmt.Errorf("%w: %s", errIncorrect, strings.Join(r.problems, "; "))
	}
	return res, nil
}

// setFlags are the options `all` and `selfcheck` share.
type setFlags struct {
	seeds   int
	seconds float64
	out     string
}

func parseSetFlags(name string, args []string) (setFlags, error) {
	var f setFlags
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.IntVar(&f.seeds, "seeds", 5, "untraced runs per workload, seeds 1..N")
	fs.Float64Var(&f.seconds, "seconds", 0, "run length (default: run_seconds of BENCHMARK.json)")
	fs.StringVar(&f.out, "out", "", "where to write the set (default bench/out/set.json)")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if fs.NArg() > 0 || f.seeds < 1 {
		return f, fmt.Errorf("bad arguments\n%s", usage)
	}
	return f, nil
}

// loadContract finds the checkout root and reads BENCHMARK.json from it.
func loadContract() (root string, bf *benchmarkFile, err error) {
	if root, err = rootDir(); err != nil {
		return "", nil, err
	}
	bf, err = loadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	return root, bf, err
}

func cmdAll(args []string) error {
	f, err := parseSetFlags("all", args)
	if err != nil {
		return err
	}
	root, bf, err := loadContract()
	if err != nil {
		return err
	}
	if f.out == "" {
		f.out = filepath.Join(root, "bench", "out", "set.json")
	}
	sets, err := runSets(bf, f, true, 1)
	if err != nil {
		return err
	}
	return writeSet(f.out, sets[0])
}

func writeSet(path string, set *runSet) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runSets builds n sets of this build at once: every workload of
// BENCHMARK.json runs seeds times untraced (and once traced when withTrace)
// for each set, each run in its own process, and the sets take turns run by
// run, so a slow spell of the host lands on all of them alike.
func runSets(bf *benchmarkFile, f setFlags, withTrace bool, n int) ([]*runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if f.seconds == 0 {
		f.seconds = float64(bf.RunSeconds)
	}
	sets := make([]*runSet, n)
	for k := range sets {
		sets[k] = &runSet{
			Commit:     gitCommit(),
			GoVersion:  runtime.Version(),
			NProc:      runtime.NumCPU(),
			Network:    "loopback",
			RunSeconds: f.seconds,
		}
		for s := 1; s <= f.seeds; s++ {
			sets[k].Seeds = append(sets[k].Seeds, int64(s))
		}
	}
	seeds := sets[0].Seeds
	for _, wl := range bf.Workloads {
		cells, err := runCells(self, sets, wl.Name, bf.EndToEnd, false, seeds)
		if err != nil {
			return nil, err
		}
		for k, set := range sets {
			set.EndToEnd = append(set.EndToEnd, cells[k]...)
		}
		if !withTrace {
			continue
		}
		if cells, err = runCells(self, sets, wl.Name, bf.PerLayer, true, seeds[:1]); err != nil {
			return nil, err
		}
		for k, set := range sets {
			set.PerLayer = append(set.PerLayer, cells[k]...)
		}
	}
	for k, set := range sets {
		printSet(os.Stdout, fmt.Sprintf("set %d of %d: end-to-end, tracing off (%d runs per workload, %g s each, nproc %d, %s, loopback)", k+1, n, f.seeds, f.seconds, set.NProc, set.GoVersion), set.EndToEnd)
		if withTrace {
			printSet(os.Stdout, "per-layer, one traced run per workload", set.PerLayer)
		}
	}
	return sets, nil
}

// runCells runs one workload once per seed for each set in turn and returns,
// per set, one cell per metric of defs; the runs' operation counts are
// added to their set.
func runCells(self string, sets []*runSet, workload string, defs []boundedMetric, traced bool, seeds []int64) ([][]cell, error) {
	cells := make([][]cell, len(sets))
	for k := range cells {
		cells[k] = make([]cell, len(defs))
		for i, d := range defs {
			cells[k][i] = cell{Metric: d.Name, Workload: workload, Unit: d.Unit}
		}
	}
	for _, seed := range seeds {
		for k, set := range sets {
			res, err := runChild(self, workload, seed, set.RunSeconds, traced)
			if err != nil {
				return nil, err
			}
			set.Attempted += res.Attempted
			set.Failed += res.Failed
			for i, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok {
					return nil, fmt.Errorf("%s: run printed no %s", workload, d.Name)
				}
				cells[k][i].Values = append(cells[k][i].Values, mv.Value)
			}
		}
	}
	for k := range cells {
		for i := range cells[k] {
			cells[k][i].summarize()
		}
	}
	return cells, nil
}

// runChild runs one workload in its own process and parses the result from
// the last line of its standard output.
func runChild(self, workload string, seed int64, seconds float64, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "run %s seed %d trace %s ...\n", workload, seed, trace)
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %s: %w\n%s", workload, seed, trace, err, stdout.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return res, nil
}

// gitCommit names the build's commit when the checkout is a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare takes two set files\n%s", usage)
	}
	_, bf, err := loadContract()
	if err != nil {
		return err
	}
	a, err := loadRunSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadRunSet(args[1])
	if err != nil {
		return err
	}
	regressed, unresolved := compareSets(os.Stdout, bf, a, b)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 || b.Failed > a.Failed {
		return fmt.Errorf("%d cells regressed; failed operations %d -> %d", regressed, a.Failed, b.Failed)
	}
	return nil
}

// cmdSelfcheck runs two sets of the same build, alternating between them run
// by run, and requires them to agree: no cell may differ by more than its
// bound in either direction, and no cell's spread may exceed its bound.
func cmdSelfcheck(args []string) error {
	f, err := parseSetFlags("selfcheck", args)
	if err != nil {
		return err
	}
	root, bf, err := loadContract()
	if err != nil {
		return err
	}
	sets, err := runSets(bf, f, false, 2)
	if err != nil {
		return err
	}
	a, b := sets[0], sets[1]
	outDir := filepath.Join(root, "bench", "out")
	if err := writeSet(filepath.Join(outDir, "selfcheck-a.json"), a); err != nil {
		return err
	}
	if err := writeSet(filepath.Join(outDir, "selfcheck-b.json"), b); err != nil {
		return err
	}
	fmt.Println("second set against the first:")
	r1, u1 := compareSets(os.Stdout, bf, a, b)
	fmt.Println("first set against the second:")
	r2, _ := compareSets(io.Discard, bf, b, a)
	if r1+r2+u1 > 0 || a.Failed+b.Failed > 0 {
		return fmt.Errorf("selfcheck: %d cells disagree beyond their bound, %d unresolved, %d failed operations", r1+r2, u1, a.Failed+b.Failed)
	}
	fmt.Println("selfcheck passed: two sets of the same build agree within every bound")
	return nil
}
