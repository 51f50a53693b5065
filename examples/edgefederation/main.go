// Edgefederation demonstrates the paper's Figure 1: latency-sensitive
// services placed on a federation of edge nodes versus a centralized cloud,
// with a permissioned ledger as the federation's trust layer.
//
//	go run ./examples/edgefederation
package main

import (
	"fmt"
	"os"

	"repro/internal/edge"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "edgefederation:", err)
		os.Exit(1)
	}
}

func run() error {
	g := sim.NewRNG(7)
	deployment, err := edge.New(g, edge.Config{
		Clients:   5000,
		EdgeNodes: 80,
		CloudDCs:  3,
		AreaKM:    3000, // a continent
	})
	if err != nil {
		return err
	}
	const budgetMs = 20 // interactive control-loop budget
	cmp := deployment.Compare(budgetMs)

	fmt.Println("client RTT by placement (5000 clients, continental region):")
	fmt.Printf("  %-26s median %6.1f ms   p95 %6.1f ms   within %vms: %4.1f%%\n",
		"edge (80 nano-DCs):", cmp.EdgeMedianMs, cmp.EdgeP95Ms, budgetMs, cmp.WithinBudgetEdge*100)
	fmt.Printf("  %-26s median %6.1f ms   p95 %6.1f ms   within %vms: %4.1f%%\n",
		"cloud (3 regional DCs):", cmp.CloudMedianMs, cmp.CloudP95Ms, budgetMs, cmp.WithinBudgetCloud*100)
	fmt.Printf("  %-26s median %6.1f ms\n", "central (single DC):", cmp.CentralMedianMs)
	fmt.Printf("\nedge speedup over cloud: %.1fx at the median\n", cmp.MedianSpeedup)

	fmt.Println("\ndensity sweep — how many edge sites buy how much latency:")
	for _, sites := range []int{10, 40, 160, 640} {
		d, err := edge.New(g, edge.Config{
			Clients: 2000, EdgeNodes: sites, CloudDCs: 3,
		})
		if err != nil {
			return err
		}
		med := d.Latencies(edge.EdgePlacement).Median()
		fmt.Printf("  %4d sites: median RTT %6.1f ms (analytic nearest-site distance %5.0f km)\n",
			sites, med, edge.TheoreticalNearestDistance(3000, sites))
	}
	fmt.Println("\nthe trust layer for such a federation is the permissioned ledger —")
	fmt.Println("see examples/supplychain and experiment E14.")
	return nil
}
