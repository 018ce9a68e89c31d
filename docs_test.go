package rlir_test

// Documentation and architecture enforcement: these tests are the
// repository's doc lint, plus structural guards: TestOneNetworkBuildSite,
// TestOneCollectionPath, TestOneReportFold and TestOneTableRenderer.
// TestPublicAPIDocumented fails on any undocumented exported identifier in
// the root package, and TestDocsCoverRegistries fails when a registered
// scenario or estimator name is missing from the user-facing markdown —
// the lists in README/DESIGN/EXPERIMENTS are kept true to the registries
// by test, not by hand. The CI docs-verify job additionally executes every
// README quickstart block verbatim (scripts/readme_check.sh).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	rlir "github.com/netmeasure/rlir"
)

// publicFiles are the root-package sources whose exported identifiers form
// the public API surface.
var publicFiles = []string{"rlir.go", "doc.go"}

// TestPublicAPIDocumented parses the public API files and requires a doc
// comment on every exported declaration (a grouped const/var/type decl may
// carry one comment for the group).
func TestPublicAPIDocumented(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range publicFiles {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc.Text() == "" {
					t.Errorf("%s: exported func %s has no doc comment", pos(fset, d), d.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := d.Doc.Text() != ""
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc.Text() == "" {
							t.Errorf("%s: exported type %s has no doc comment", pos(fset, sp), sp.Name.Name)
						}
					case *ast.ValueSpec:
						if !groupDoc && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
							for _, name := range sp.Names {
								if name.IsExported() {
									t.Errorf("%s: exported %s has no doc comment", pos(fset, sp), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
}

func pos(fset *token.FileSet, n ast.Node) string {
	p := fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// TestDocsCoverRegistries pins the markdown to the registries: every
// registered scenario and estimator name must appear in each user-facing
// document, so registering a new one without documenting it fails CI.
func TestDocsCoverRegistries(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	names := append(append([]string{}, rlir.ScenarioNames()...), rlir.EstimatorNames()...)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		text := string(data)
		for _, name := range names {
			if !strings.Contains(text, name) {
				t.Errorf("%s does not mention registered name %q", doc, name)
			}
		}
	}
}

// TestReadmeDocumentsEveryCommand requires a quickstart reference for each
// cmd/ subdirectory in the README.
func TestReadmeDocumentsEveryCommand(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !strings.Contains(text, "./cmd/"+e.Name()) {
			t.Errorf("README.md has no runnable reference to ./cmd/%s", e.Name())
		}
	}
}

// TestOneNetworkBuildSite is the architecture guard for "one event engine,
// one builder per topology": outside tests and the benchmark's own module, a
// simulated network is constructed only by the scenario engine's tandem and
// fat-tree harnesses, perturbed (a port's Link, a node's selective delay)
// only by the fat-tree's, the estimator plane only by the engine's shared
// measurement plane, and internal/experiments — a pure client of that engine
// — imports neither the event engine nor the network simulator. Anything
// that instruments "the simulator" therefore has one place to attach.
func TestOneNetworkBuildSite(t *testing.T) {
	allowed := map[string][]string{
		"netsim.New(":          {"internal/scenario/fattree.go", "internal/scenario/tandem.go"},
		"topo.Build(":          {"internal/scenario/fattree.go"},
		"measure.NewDispatch(": {"internal/scenario/engine.go"},
		// Perturbations of the network have one build site too.
		".SetLink(":           {"internal/scenario/fattree.go"},
		".SetSelectiveDelay(": {"internal/scenario/fattree.go"},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for call, files := range allowed {
			if strings.Contains(string(src), call) && !slices.Contains(files, filepath.ToSlash(path)) {
				t.Errorf("%s calls %s; only %v may", path, call, files)
			}
		}
		if filepath.Dir(path) == filepath.Join("internal", "experiments") {
			f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if strings.HasSuffix(imp.Path.Value, `/internal/eventsim"`) || strings.HasSuffix(imp.Path.Value, `/internal/netsim"`) {
					t.Errorf("%s imports %s; experiments runs everything through internal/scenario", path, imp.Path.Value)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneCollectionPath is the architecture guard for "one collection
// path": a scenario's fleet report is the production chain's answer
// (fleet.Router into rlird servers, gathered by a fleet.Frontend), never a
// model of it. In non-test internal/scenario code a collector is built only
// by the engine, for the run's single-node reference table, and tables are
// merged only by the cross-seed fold.
func TestOneCollectionPath(t *testing.T) {
	allowed := map[string]string{
		"collector.New(":   "engine.go",
		"collector.Merge(": "multi.go",
	}
	dir := filepath.Join("internal", "scenario")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for call, file := range allowed {
			if strings.Contains(string(src), call) && e.Name() != file {
				t.Errorf("%s calls %s; only %s may", filepath.Join(dir, e.Name()), call, file)
			}
		}
	}
}

// TestOneReportFold is the architecture guard for "one fold per summary":
// a per-flow report's aggregate is derived by measure.Report.WithFlows, and
// an aggregate-only one by its estimator, so no non-test file outside
// internal/measure (and the benchmark's own module) assigns AggMean or
// AggSamples — by =, op=, ++/-- or a measure.Report literal's key. A second
// hand-written re-derivation drifts from the first by a rounding step.
func TestOneReportFold(t *testing.T) {
	aggField := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "AggMean" || sel.Sel.Name == "AggSamples")
	}
	isReport := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "measure" && sel.Sel.Name == "Report"
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "measure") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// lit checks one report literal: a typed one, or an elided element
		// of a []measure.Report.
		lit := func(cl *ast.CompositeLit) {
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && (k.Name == "AggMean" || k.Name == "AggSamples") {
						t.Errorf("%s sets a report's %s; derive it with measure.Report.WithFlows", pos(fset, kv), k.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if aggField(l) {
						t.Errorf("%s assigns %s; derive it with measure.Report.WithFlows", pos(fset, l), l.(*ast.SelectorExpr).Sel.Name)
					}
				}
			case *ast.IncDecStmt:
				if aggField(n.X) {
					t.Errorf("%s steps %s; derive it with measure.Report.WithFlows", pos(fset, n), n.X.(*ast.SelectorExpr).Sel.Name)
				}
			case *ast.CompositeLit:
				if isReport(n.Type) {
					lit(n)
				}
				if at, ok := n.Type.(*ast.ArrayType); ok && isReport(at.Elt) {
					for _, el := range n.Elts {
						if cl, ok := el.(*ast.CompositeLit); ok && cl.Type == nil {
							lit(cl)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneTableRenderer is the architecture guard for "one table renderer":
// every report under internal/ prints its rows as a stats.Table through
// stats.TableCI.Render, which sizes each column from its widest cell. A
// width-padded verb (%-18s, %8d, %12v) anywhere else in non-test code,
// internal/stats included, is a hand-written row renderer whose columns
// overflow on a long name.
func TestOneTableRenderer(t *testing.T) {
	padded := regexp.MustCompile(`%-?[0-9]+[sdv]`)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			path == filepath.Join("internal", "stats", "table.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := padded.FindString(line); m != "" {
				t.Errorf("%s:%d uses %s; print rows as a stats.Table", path, i+1, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChangesEntryBudget keeps CHANGES.md a log rather than a lab notebook:
// from PR 41 on, an entry — its "- **PR N**" line and the indented lines
// under it — holds at most 2 000 characters, in lines of at most 100.
// Measurements belong in EXPERIMENTS.md, which the entry can point to.
func TestChangesEntryBudget(t *testing.T) {
	const firstBudgeted, maxEntry, maxLine = 41, 2000, 100
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`^- (\*\*)?PR (\d+)\b`)
	pr, size := 0, 0 // the budgeted entry being read, 0 outside one
	end := func() {
		if pr > 0 && size > maxEntry {
			t.Errorf("CHANGES.md: the PR %d entry holds %d characters, want <= %d", pr, size, maxEntry)
		}
		pr, size = 0, 0
	}
	for i, line := range strings.Split(string(data), "\n") {
		if m := head.FindStringSubmatch(line); m != nil {
			end()
			if n, _ := strconv.Atoi(m[2]); n >= firstBudgeted {
				pr = n
			}
		} else if !strings.HasPrefix(line, "  ") {
			end()
		}
		if pr == 0 {
			continue
		}
		n := utf8.RuneCountInString(line)
		size += n + 1
		if n > maxLine {
			t.Errorf("CHANGES.md:%d: a PR %d line of %d characters, want <= %d", i+1, pr, n, maxLine)
		}
	}
	end()
}
