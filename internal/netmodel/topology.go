package netmodel

import (
	"errors"
	"fmt"
)

// Topology construction. A TopologySpec describes a node population
// statistically — a weighted regional mix plus weighted access-bandwidth
// classes — and BuildTopology realizes it deterministically: region counts
// follow the weights exactly (largest-remainder apportionment), while the
// interleaving of regions and the per-node bandwidth class are drawn from
// the "netmodel" RNG stream, so a (seed, spec) pair always yields the same
// population without the region proportions themselves being noisy.

// RegionWeight is one component of a regional mix.
type RegionWeight struct {
	Region Region
	Weight float64
}

// BandwidthClass is one access-link tier with a selection weight. Zero
// bandwidth on either direction means unconstrained.
type BandwidthClass struct {
	Name        string
	UplinkBps   float64
	DownlinkBps float64
	Weight      float64
}

// TopologySpec describes a node population for BuildTopology.
type TopologySpec struct {
	// Nodes is the population size.
	Nodes int
	// Mix is the weighted regional composition; nil defaults to MixGlobal.
	Mix []RegionWeight
	// Classes are the weighted access-bandwidth tiers; nil means every
	// node gets an unconstrained link.
	Classes []BandwidthClass
}

// The named mix presets, selectable by experiments through a small-integer
// knob. Preset 0 is reserved by convention for "no transport / abstract
// model" at the experiment layer and is not a mix.
const (
	MixGlobal        = 1 // internet-like global spread
	MixAsiaPacific   = 2 // hashrate-concentration shape: Asia-Pacific heavy
	MixTransatlantic = 3 // NA+EU dominated, thin elsewhere
	MixUniform       = 4 // equal weight across all six regions
	NumMixPresets    = 4
)

// MixPreset returns one of the named regional mixes (1..NumMixPresets).
// Every preset places nodes on both sides of the Atlantic cut (the
// Americas vs the rest), so partition experiments always find a non-empty
// minority.
func MixPreset(i int) ([]RegionWeight, error) {
	switch i {
	case MixGlobal:
		return []RegionWeight{
			{NorthAmerica, 0.30}, {Europe, 0.30}, {Asia, 0.25},
			{SouthAmerica, 0.05}, {Oceania, 0.05}, {Africa, 0.05},
		}, nil
	case MixAsiaPacific:
		return []RegionWeight{
			{Asia, 0.55}, {Oceania, 0.10}, {NorthAmerica, 0.15},
			{Europe, 0.15}, {SouthAmerica, 0.05},
		}, nil
	case MixTransatlantic:
		return []RegionWeight{
			{NorthAmerica, 0.45}, {Europe, 0.45}, {Asia, 0.10},
		}, nil
	case MixUniform:
		return []RegionWeight{
			{NorthAmerica, 1}, {Europe, 1}, {Asia, 1},
			{SouthAmerica, 1}, {Oceania, 1}, {Africa, 1},
		}, nil
	default:
		return nil, fmt.Errorf("netmodel: unknown mix preset %d (want 1..%d)", i, NumMixPresets)
	}
}

// BuildTopology attaches spec.Nodes nodes to the network and returns their
// ids. Region counts follow the mix weights exactly; assignment order and
// bandwidth classes are drawn from the "netmodel" stream (shard 0's: building
// a topology is setup, before any shard runs).
func (n *Net) BuildTopology(spec TopologySpec) ([]NodeID, error) {
	if spec.Nodes <= 0 {
		return nil, errors.New("netmodel: topology needs at least one node")
	}
	mix := spec.Mix
	if mix == nil {
		mix, _ = MixPreset(MixGlobal)
	}
	regions, err := apportionRegions(mix, spec.Nodes)
	if err != nil {
		return nil, err
	}
	// Shuffle so region blocks interleave; proportions are unaffected.
	n.rngs[0].Shuffle(len(regions), func(i, j int) {
		regions[i], regions[j] = regions[j], regions[i]
	})
	var classTotal float64
	for _, c := range spec.Classes {
		if c.Weight < 0 {
			return nil, fmt.Errorf("netmodel: bandwidth class %q has negative weight", c.Name)
		}
		// Negative bandwidth would silently mean "unconstrained" at the
		// serialization layer — reject the sign error instead.
		if c.UplinkBps < 0 || c.DownlinkBps < 0 {
			return nil, fmt.Errorf("netmodel: bandwidth class %q has negative bandwidth", c.Name)
		}
		classTotal += c.Weight
	}
	if len(spec.Classes) > 0 && classTotal <= 0 {
		return nil, errors.New("netmodel: bandwidth classes need positive total weight")
	}
	ids := make([]NodeID, spec.Nodes)
	for i, region := range regions {
		var up, down float64
		if len(spec.Classes) > 0 {
			c := spec.Classes[pickWeighted(n.rngs[0].Float64()*classTotal, spec.Classes)]
			up, down = c.UplinkBps, c.DownlinkBps
		}
		ids[i] = n.AddNodeLink(region, up, down)
	}
	return ids, nil
}

// pickWeighted returns the index of the class the cumulative draw lands in.
func pickWeighted(target float64, classes []BandwidthClass) int {
	var cum float64
	for i, c := range classes {
		cum += c.Weight
		if target < cum {
			return i
		}
	}
	return len(classes) - 1
}

// apportionRegions expands a weighted mix into an exact region-per-node
// slice using largest-remainder apportionment: counts are the floors of
// the ideal shares, and the leftover seats go to the largest fractional
// remainders (ties broken by mix order).
func apportionRegions(mix []RegionWeight, nodes int) ([]Region, error) {
	var total float64
	for _, rw := range mix {
		if rw.Region < NorthAmerica || rw.Region > Africa {
			return nil, fmt.Errorf("netmodel: invalid region %d in mix", int(rw.Region))
		}
		if rw.Weight < 0 {
			return nil, fmt.Errorf("netmodel: region %s has negative weight", rw.Region)
		}
		total += rw.Weight
	}
	if total <= 0 {
		return nil, errors.New("netmodel: mix needs positive total weight")
	}
	counts := make([]int, len(mix))
	remainders := make([]float64, len(mix))
	assigned := 0
	for i, rw := range mix {
		ideal := rw.Weight / total * float64(nodes)
		counts[i] = int(ideal)
		remainders[i] = ideal - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < nodes {
		best := 0
		for i := 1; i < len(remainders); i++ {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		counts[best]++
		remainders[best] = -1
		assigned++
	}
	out := make([]Region, 0, nodes)
	for i, rw := range mix {
		for k := 0; k < counts[i]; k++ {
			out = append(out, rw.Region)
		}
	}
	return out, nil
}
