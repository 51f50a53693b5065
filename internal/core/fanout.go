package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// helpers counts the goroutines FanOut has started and not yet seen finish,
// process-wide. Each call's own goroutine runs parts too, so fewer than
// GOMAXPROCS-1 helpers keep the process at GOMAXPROCS parts at once.
var helpers atomic.Int64

// FanOut runs part(0), …, part(n-1) and returns their results in index
// order. Parts are taken in index order by the calling goroutine and its
// helpers: one that takes a part with more left first starts a helper, if
// this call has fewer than limit goroutines (limit <= 0: no limit) and the
// process fewer than GOMAXPROCS-1 helpers. The lowest-index failure wins,
// as in a loop: no part is taken after one has failed, and the lowest
// failed index's error is returned or its panic re-raised with the stack
// of the goroutine it started on.
func FanOut[T any](n, limit int, part func(i int) (T, error)) ([]T, error) {
	out, errs := make([]T, n), make([]error, n)
	if limit <= 0 {
		limit = n
	}
	var next, started atomic.Int64 // parts taken, helpers started
	var failed atomic.Bool
	var wg sync.WaitGroup
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = &partPanic{value: p, stack: debug.Stack()}
			}
			if errs[i] != nil {
				failed.Store(true)
			}
		}()
		out[i], errs[i] = part(i)
	}
	var work func()
	work = func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if i+1 < n && reserve(&started, int64(limit-1)) {
				if reserve(&helpers, int64(runtime.GOMAXPROCS(0)-1)) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer helpers.Add(-1)
						work()
					}()
				} else {
					started.Add(-1)
				}
			}
			run(i)
		}
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if p, ok := err.(*partPanic); ok {
			panic(p)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reserve adds one to c if c stays at most bound, and reports whether it did.
func reserve(c *atomic.Int64, bound int64) bool {
	for v := c.Load(); v < bound; v = c.Load() {
		if c.CompareAndSwap(v, v+1) {
			return true
		}
	}
	return false
}

// partPanic is a part's panic value and the stack of the goroutine it
// started on, re-raised by FanOut on the calling goroutine.
type partPanic struct {
	value any
	stack []byte
}

func (p *partPanic) Error() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }
