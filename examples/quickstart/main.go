// Quickstart: the paper's headline result in ~30 lines.
//
// It simulates 16 servers at 90% load under the Fine-Grain workload and
// compares the random policy, random polling with poll size 2, and the
// IDEAL oracle — then repeats poll-2 on the real-socket prototype.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"finelb"
)

func main() {
	w := finelb.FineGrain().ScaledTo(16, 0.9)

	fmt.Println("simulation (16 servers, 90% busy, Fine-Grain trace):")
	for _, policy := range []finelb.Policy{
		finelb.NewRandom(), finelb.NewPoll(2), finelb.NewIdeal(),
	} {
		res, err := finelb.Simulate(finelb.SimConfig{
			Servers: 16, Workload: w, Policy: policy,
			Accesses: 60000, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s mean %7.3f ms   p95 %7.3f ms\n",
			policy, res.Response.Mean()*1e3, res.Response.Percentile(0.95)*1e3)
	}

	fmt.Println("\nprototype (real UDP/TCP on loopback, same cell):")
	res, err := finelb.ProtoSubstrate{}.Run(finelb.RunSpec{
		Servers: 16, Clients: 6, Workload: w,
		Policy:   finelb.NewPoll(2),
		Accesses: 8000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-8s mean %7.3f ms   p95 %7.3f ms   mean poll %.3f ms\n",
		"poll 2", res.MeanResponse*1e3, res.P95Response*1e3, res.MeanPollTime*1e3)

	fmt.Println("\nThe poll-2 policy sits near IDEAL while random queues up —")
	fmt.Println("the paper's conclusion 1: random polling suits fine-grain services.")
}
