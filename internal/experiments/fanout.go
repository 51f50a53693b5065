package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// fanOut runs the n independent parts of one run and returns their results
// in index order. A part builds its own kernel (newSim/newSimSeed), returns
// everything it computed, writes no captured variable and shares no RNG
// with another part, so the results do not depend on how the parts are
// scheduled. Parts are taken in index order by min(n, GOMAXPROCS) workers,
// one of them the calling goroutine, so a runner lists its costliest part
// first: started last, it would leave the other workers idle at the end.
//
// The lowest-index failure wins, as it would in a loop: no part is taken
// after one has failed, and the lowest failed index's error is returned or
// its panic re-raised on the calling goroutine, where the harness's recover
// turns it into the job's error. A re-raised panic carries the stack of the
// goroutine it started on.
//
// Under telemetry (cfg.Obs != nil) there is one worker, the calling
// goroutine: an obs.Collector is not safe for concurrent use, and the order
// in which kernels register with it is part of the deterministic snapshot.
func fanOut[T any](cfg core.Config, n int, part func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	panics := make([]*partPanic, n)
	var next atomic.Int64
	var failed atomic.Bool
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				panics[i] = &partPanic{value: p, stack: debug.Stack()}
				failed.Store(true)
			}
		}()
		if out[i], errs[i] = part(i); errs[i] != nil {
			failed.Store(true)
		}
	}
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			run(i)
		}
	}
	w := min(n, runtime.GOMAXPROCS(0))
	if cfg.Obs != nil {
		w = 1
	}
	var wg sync.WaitGroup
	for ; w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i := range out {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// partPanic is a part's panic value and the stack of the goroutine it
// started on, re-raised by fanOut on the calling goroutine.
type partPanic struct {
	value any
	stack []byte
}

func (p *partPanic) Error() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }
