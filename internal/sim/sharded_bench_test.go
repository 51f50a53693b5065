package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelShardMailbox measures the sharded driver's steady-state
// cross-shard cycle: Post into per-source outboxes, barrier merge
// (drainOutboxes sorts and schedules into destination kernels), and the
// destination windows firing the delivered events so every slot recycles.
// The whole cycle is pinned at 0 allocs/op by BENCH_baseline.json: outbox
// and merge scratch reuse their backing arrays, the sort goes through the
// pointer-receiver mailboxOrder (no interface boxing), and delivered
// events come from the kernels' free lists.
func BenchmarkKernelShardMailbox(b *testing.B) {
	const shards = 4
	ss, err := NewSharded(shards, time.Millisecond, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	h := func(Payload) {}
	var at time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += time.Millisecond
		for from := 0; from < shards; from++ {
			ss.Post(from, (from+1)%shards, at, h, Payload{A: int64(i)})
		}
		ss.drainOutboxes()
		for s := 0; s < shards; s++ {
			if err := ss.shards[s].runBefore(at + time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	}
}
