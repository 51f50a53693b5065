package harness

import "repro/internal/core"

// GroupView is the report-oriented aggregation view of one scenario: the
// cross-seed statistics of Group plus the full artifacts (tables, figures,
// checks with measured detail) of one representative replication. The
// representative is the successful run with the lowest seed, a choice that
// depends only on the job list — never on worker count or completion
// order — so report rendering stays byte-deterministic.
type GroupView struct {
	Group
	// Representative is the lowest-seed successful result, or nil when
	// every replication errored.
	Representative *core.Result
	// RepresentativeSeed is the seed Representative was produced by
	// (0 when Representative is nil).
	RepresentativeSeed int64
}
