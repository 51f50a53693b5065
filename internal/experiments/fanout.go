package experiments

import "repro/internal/core"

// fanOut runs the n independent parts of one run through core.FanOut. A
// part builds its own kernel (newSim/newSimSeed), returns everything it
// computed, writes no captured variable and shares no RNG with another, so
// its result does not depend on scheduling. A runner lists its costliest
// part first: started last, it would leave the other cores idle at the end.
// Under telemetry (cfg.Obs != nil) the caller runs every part in order: an
// obs.Collector is not safe for concurrent use, and the order in which
// kernels register with it is in the deterministic snapshot.
func fanOut[T any](cfg core.Config, n int, part func(i int) (T, error)) ([]T, error) {
	limit := 0
	if cfg.Obs != nil {
		limit = 1
	}
	return core.FanOut(n, limit, part)
}
