// Command lbsim runs one load-balancing simulation cell and prints its
// measurements: the building block the paper's Figures 2-4 sweep over.
//
// Usage:
//
//	lbsim [-workload poisson|medium|fine] [-policy random|rr|poll|broadcast|ideal]
//	      [-d 2] [-discard 0] [-interval 100ms] [-servers 16] [-clients 6]
//	      [-load 0.9] [-accesses 100000] [-speed-factors SPEC] [-seed 1]
//
// Example (the paper's headline cell):
//
//	lbsim -workload fine -policy poll -d 2 -load 0.9
//
// A heterogeneous cluster is a -speed-factors spec: a quarter of 16
// servers running 3x faster is
//
//	lbsim -workload fine -policy poll -speed-factors 4x3,12x1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"finelb/internal/core"
	"finelb/internal/simcluster"
	"finelb/internal/stats"
	"finelb/internal/workload"
)

func main() {
	wname := flag.String("workload", "poisson", "poisson, medium, or fine")
	pname := flag.String("policy", "poll", "random, rr, poll, broadcast, or ideal")
	d := flag.Int("d", 2, "poll size (policy=poll)")
	discard := flag.Duration("discard", 0, "slow-poll discard threshold, 0 = off (policy=poll)")
	interval := flag.Duration("interval", 100*time.Millisecond, "mean broadcast interval (policy=broadcast)")
	servers := flag.Int("servers", 16, "server nodes")
	clients := flag.Int("clients", 6, "client nodes")
	load := flag.Float64("load", 0.9, "per-server utilization in (0,1)")
	accesses := flag.Int("accesses", 100000, "service accesses to simulate")
	burst := flag.Float64("burst", 1, "arrival burst intensity (1 = none; Markov-modulated bursts)")
	speedSpec := flag.String("speed-factors", "", `per-server speeds for a heterogeneous cluster, e.g. "4x3.25,12x0.25" (count x factor groups)`)
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	var w workload.Workload
	switch *wname {
	case "poisson":
		w = workload.PoissonExp(workload.PoissonExpServiceMean)
	case "medium":
		w = workload.MediumGrain()
	case "fine":
		w = workload.FineGrain()
	default:
		fmt.Fprintf(os.Stderr, "lbsim: unknown workload %q\n", *wname)
		os.Exit(2)
	}

	p, err := core.ParsePolicy(*pname, *d, *discard, *interval)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}

	scaled := w.ScaledTo(*servers, *load)
	if *burst > 1 {
		scaled = scaled.WithBurstyArrivals(*burst, 50)
	}
	speeds, err := simcluster.ParseSpeedFactors(*speedSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	start := time.Now()
	res, err := simcluster.Run(simcluster.Config{
		Servers:      *servers,
		Clients:      *clients,
		Workload:     scaled,
		Policy:       p,
		SpeedFactors: speeds,
		Accesses:     *accesses,
		Seed:         *seed,
	})
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}

	fmt.Printf("workload    %s (service mean %.3gms)\n", w.Name, w.Service.Mean()*1e3)
	fmt.Printf("policy      %s\n", p)
	fmt.Printf("cluster     %d servers, %d clients, %.0f%% busy\n", *servers, *clients, *load*100)
	fmt.Printf("accesses    %d (simulated %.2fs)\n", *accesses, res.SimDuration)
	mean, hw := stats.BatchMeans(res.Response.Samples(), 20)
	fmt.Printf("response    mean %.3fms (+-%.3fms, 95%% CI)  p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		mean*1e3, hw*1e3, res.Response.Percentile(0.5)*1e3,
		res.Response.Percentile(0.95)*1e3, res.Response.Percentile(0.99)*1e3,
		res.Response.Max()*1e3)
	if res.PollTime.N() > 0 {
		fmt.Printf("polling     mean %.3fms  max %.3fms  discarded %d/%d\n",
			res.PollTime.Mean()*1e3, res.PollTime.Max()*1e3,
			res.Messages.PollsDiscarded, res.Messages.PollRequests)
	}
	fmt.Printf("queue       time-averaged length %.3f\n", res.MeanQueueLength)
	fmt.Printf("utilization mean %.3f\n", res.MeanUtilization())
	fmt.Printf("messages    %d load-information messages (%.2f per access)\n",
		res.Messages.Total(), float64(res.Messages.Total())/float64(*accesses))
	fmt.Printf("engine      %d events in %v (%.3g events/sec)\n",
		res.EventsFired, wall.Round(time.Millisecond),
		float64(res.EventsFired)/wall.Seconds())
}
