// Package cloudbase models the system the paper holds up as the
// permissionless blockchain's foil: a trusted, shared-nothing, partitioned
// transaction processor (the VISA-style cloud OLTP cluster). Each shard is a
// server that processes transactions serially; keys are hash-partitioned;
// cross-shard transactions occupy two shards plus a commit round trip.
//
// Because shards only process their own partition — instead of every node
// validating every transaction as in a broadcast blockchain — capacity
// scales linearly with the shard count. That contrast is experiment E6.
package cloudbase

import (
	"errors"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterizes the cluster.
type Config struct {
	// Shards is the number of partitions.
	Shards int
	// ServiceTime is the per-transaction processing time at one shard.
	ServiceTime time.Duration
	// CrossShardFrac is the fraction of transactions touching two shards.
	CrossShardFrac float64
}

// commitRTT is the extra coordination latency for cross-shard commits.
const commitRTT = 2 * time.Millisecond

func (c Config) withDefaults() (Config, error) {
	if c.Shards <= 0 {
		return c, errors.New("cloudbase: need at least one shard")
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = time.Millisecond
	}
	if c.CrossShardFrac < 0 || c.CrossShardFrac > 1 {
		return c, errors.New("cloudbase: CrossShardFrac must be in [0,1]")
	}
	return c, nil
}

// CapacityTPS returns the theoretical throughput ceiling: each cross-shard
// transaction consumes two shard-slots.
func (c Config) CapacityTPS() float64 {
	cfg, err := c.withDefaults()
	if err != nil {
		return 0
	}
	perShard := 1 / cfg.ServiceTime.Seconds()
	return float64(cfg.Shards) * perShard / (1 + cfg.CrossShardFrac)
}

// Stats reports a load run.
type Stats struct {
	// TPS is completed transactions per second of simulated time.
	TPS float64
	// P99 is the 99th-percentile latency.
	P99 time.Duration
}

// Cluster is a simulated sharded transaction processor.
type Cluster struct {
	sim *sim.Sim
	cfg Config
	rng *sim.RNG

	// nextFree is each shard's earliest idle time.
	nextFree []time.Duration

	inWindow int
	horizon  time.Duration
	latency  metrics.Sample
}

// NewCluster creates an idle cluster.
func NewCluster(s *sim.Sim, cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Cluster{
		sim:      s,
		cfg:      cfg,
		rng:      s.Stream("cloudbase"),
		nextFree: make([]time.Duration, cfg.Shards),
	}, nil
}

// Submit enqueues one transaction for the shard owning key. It returns the
// predicted completion time.
func (c *Cluster) Submit(key uint64) time.Duration {
	now := c.sim.Now()
	shard := int(key % uint64(c.cfg.Shards))
	cross := c.rng.Bool(c.cfg.CrossShardFrac)

	// Each shard serves its sub-transaction independently; a cross-shard
	// transaction completes when both halves have and the commit round
	// trip is paid. Shards are not held across the commit (early lock
	// release), so no convoy forms.
	serve := func(sh int) time.Duration {
		done := maxDur(now, c.nextFree[sh]) + c.cfg.ServiceTime
		c.nextFree[sh] = done
		return done
	}
	done := serve(shard)
	if cross {
		other := shard
		if c.cfg.Shards > 1 {
			other = (shard + 1 + c.rng.Intn(c.cfg.Shards-1)) % c.cfg.Shards
		}
		done = maxDur(done, serve(other)) + commitRTT
	}
	c.sim.At(done, func() {
		if c.horizon <= 0 || done <= c.horizon {
			c.inWindow++
		}
		c.latency.AddDuration(done - now)
	})
	return done
}

// Run offers load at the given rate for the given duration and returns the
// measured statistics after the queues drain.
func (c *Cluster) Run(offeredTPS float64, duration time.Duration) (Stats, error) {
	if offeredTPS <= 0 || duration <= 0 {
		return Stats{}, errors.New("cloudbase: offered rate and duration must be positive")
	}
	c.horizon = duration
	err := workload.StartPoisson(c.sim, c.rng, offeredTPS, duration, func(int) { c.Submit(c.rng.Uint64()) })
	if err != nil {
		return Stats{}, err
	}
	if err := c.sim.Run(); err != nil {
		return Stats{}, err
	}
	st := Stats{P99: time.Duration(c.latency.Percentile(99) * float64(time.Second))}
	if d := duration.Seconds(); d > 0 {
		// Throughput counts only completions inside the measurement
		// window, excluding the post-horizon queue drain.
		st.TPS = float64(c.inWindow) / d
	}
	return st, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
