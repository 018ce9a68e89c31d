package stats

// Aggregate is the mergeable-aggregate contract shared by every accumulator
// in this package: *Welford and *Sketch both satisfy it (A is the concrete
// aggregate type, S its exported state). The collector's flow table, the
// rollup tiers and the fleet raw-snapshot wire are built on these laws:
//
//   - Add folds one observation (latency samples travel as float64
//     nanoseconds everywhere in this repository).
//   - Merge folds another aggregate of the same type and represents the
//     union multiset of both operands' observations. It must be
//     associative and order-invariant over that multiset: Sketch holds
//     integer bucket counters (plus min/max), so its merges are bit-exact
//     under ANY merge order, even when both operands are non-empty; Welford
//     merges are exact on the multiset semantics but reassociate float
//     sums, so bitwise equality is only guaranteed when at most one operand
//     is non-empty (the fleet tier's flow-disjoint partitioning preserves
//     exactly this).
//   - State and SetState round-trip the exact internal state, including
//     through JSON (Go encodes floats shortest-round-trip), so an
//     aggregate can cross a process boundary and be rebuilt
//     bit-identically: SetState(State()) is the identity.
type Aggregate[A, S any] interface {
	*A
	Add(x float64)
	Merge(o *A)
	State() S
	SetState(s S)
}

// FromState rebuilds an aggregate of type A from its exported state through
// the shared contract — the one generic round-trip behind WelfordFromState
// and SketchFromState.
func FromState[A, S any, P Aggregate[A, S]](s S) A {
	var a A
	P(&a).SetState(s)
	return a
}

// Compile-time proof that both accumulators satisfy the contract
// (instantiating FromState forces constraint satisfaction).
var (
	_ = FromState[Welford, WelfordState, *Welford]
	_ = FromState[Sketch, SketchState, *Sketch]
)
