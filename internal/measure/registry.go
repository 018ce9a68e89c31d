package measure

import (
	"fmt"
	"sort"
	"strings"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/lda"
	"github.com/netmeasure/rlir/internal/trace"
)

// Config parameterizes estimator construction; everything else an
// estimator needs is its documented default.
type Config struct {
	// Seed keys every hash an estimator derives (sampling decisions, LDA
	// buckets). Harnesses pass the run seed so estimator state is
	// reproducible with the run.
	Seed int64
	// Receiver configures the RLI receiver ("rli" only; Demux required).
	Receiver core.ReceiverConfig
}

// Constructor builds a named estimator from a config.
type Constructor func(cfg Config) (Estimator, error)

var registry = map[string]Constructor{}

// Register adds a named constructor. It panics on duplicates — estimator
// names are part of the scenario spec surface and must be unambiguous.
func Register(name string, c Constructor) {
	if _, dup := registry[name]; dup {
		panic("measure: duplicate estimator registration of " + name)
	}
	if c == nil {
		panic("measure: nil constructor for " + name)
	}
	registry[name] = c
}

// Names returns every registered estimator name with "rli" (the mechanism
// under test) first and the baselines after it in sorted order — the
// default comparison set.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		if n != "rli" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	if _, ok := registry["rli"]; ok {
		out = append([]string{"rli"}, out...)
	}
	return out
}

// Registered reports whether name is a known estimator.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}

// New builds a registered estimator. Unknown names fail listing the valid
// ones, so a CLI/CI user can fix the spelling without reading code.
func New(name string, cfg Config) (Estimator, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("measure: unknown estimator %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return c(cfg)
}

func init() {
	Register("rli", func(cfg Config) (Estimator, error) {
		return NewRLI(cfg.Receiver)
	})
	Register("lda", func(cfg Config) (Estimator, error) {
		lcfg := lda.DefaultConfig()
		lcfg.Seed ^= uint64(cfg.Seed)
		return NewLDA(lcfg), nil
	})
	Register("netflow-sample", func(cfg Config) (Estimator, error) {
		return NewSampled(DefaultSampleRate, cfg.Seed), nil
	})
	Register("hash-sample", func(cfg Config) (Estimator, error) {
		// The secret key derives from the run seed; a deployment hiding the
		// sample set from the routers it measures would provision its own.
		return NewHashSampled(DefaultSampleRate, trace.SplitMix64(uint64(cfg.Seed)^0x5ec2e7_4b3a9d01)), nil
	})
	Register("periodic-sample", func(cfg Config) (Estimator, error) {
		return NewPeriodicSampled(DefaultSampleRate), nil
	})
	Register("multiflow", func(cfg Config) (Estimator, error) {
		return NewMultiflow(DefaultQuantize), nil
	})
}

// ParseList splits a comma-separated estimator list, trimming whitespace
// and skipping empty items, and validates every name against the
// registry. It is the shared front-end for every CLI -estimators flag.
func ParseList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !Registered(n) {
			return nil, fmt.Errorf("unknown estimator %q (registered: %s)", n, strings.Join(Names(), ", "))
		}
		out = append(out, n)
	}
	return out, nil
}

// NewSet builds one estimator per name. It fails on the first unknown
// name.
func NewSet(names []string, cfg Config) ([]Estimator, error) {
	out := make([]Estimator, 0, len(names))
	for _, n := range names {
		e, err := New(n, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
