// Package ndfix is a decentlint analysistest fixture: positive nondeterm
// findings, the exempt key-collection idiom, and directive suppression.
package ndfix

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"
)

func clocks() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func env() string {
	return os.Getenv("HOME") // want `os\.Getenv makes output depend on the environment`
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand\.Intn draws from the shared process stream`
}

func mapWrites(m map[string]int, w *strings.Builder) []string {
	var out []string
	for k := range m {
		out = append(out, k+"!") // want `append to outer slice inside map iteration`
	}
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `fmt\.Printf inside map iteration`
	}
	for k := range m {
		w.WriteString(k) // want `WriteString call inside map iteration`
	}
	var s string
	for k := range m {
		s += k // want `string concatenation into outer variable inside map iteration`
	}
	out = append(out, s)
	return out
}

// keyCollect is the exempt idiom: collect keys, sort, then iterate.
func keyCollect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// describe builds strings per entry into another map: order-independent.
func describe(m map[string]int) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = fmt.Sprintf("%d", v)
	}
	return out
}

type sched struct{}

func (sched) After(d time.Duration, fn func()) {}

func (sched) SendFrom(from, to, size int, fn func(from, to int)) bool { return true }

func (sched) Call(from, to, reqSize, respSize int, timeout time.Duration, serve func() bool, done func(ok, inFlight bool)) {
}

func schedule(m map[string]int, s sched) {
	for range m {
		s.After(time.Second, nil) // want `After call inside map iteration schedules events in map order`
	}
	for k, v := range m {
		s.SendFrom(len(k), v, 80, nil) // want `SendFrom call inside map iteration schedules events in map order`
	}
	for k, v := range m {
		s.Call(len(k), v, 80, 120, time.Second, nil, nil) // want `Call call inside map iteration schedules events in map order`
	}
}

func audited() time.Time {
	return time.Now() //decentlint:allow nondeterm fixture audited exception
}
