// Command lbclient drives load against lbnode processes (or any
// prototype nodes) given their printed address lines, using a chosen
// load-balancing policy, and reports response-time statistics.
//
// Usage:
//
//	lbnode -n 4 > nodes.txt &
//	lbclient -nodes nodes.txt -policy poll -d 2 -rate 200 -duration 10s
//
// Each line of the nodes file is "<id> <access addr> <load addr>" as
// printed by lbnode.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/stats"
)

func parseNodes(path string) ([]cluster.Endpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var eps []cluster.Endpoint
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad node line %q", line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad node id in %q", line)
		}
		eps = append(eps, cluster.Endpoint{
			NodeID: id, Service: "translate",
			AccessAddr: fields[1], LoadAddr: fields[2],
		})
	}
	return eps, sc.Err()
}

func main() {
	nodesPath := flag.String("nodes", "", "file of node address lines from lbnode")
	dirAddr := flag.String("dir", "", "lbdir address for dynamic discovery (alternative to -nodes)")
	pname := flag.String("policy", "poll", "random, rr, poll, or ideal")
	d := flag.Int("d", 2, "poll size")
	discard := flag.Duration("discard", 0, "slow-poll discard threshold (0 = off)")
	rate := flag.Float64("rate", 100, "aggregate accesses per second")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	serviceMs := flag.Float64("service", 2.22, "mean service demand in ms (exponential)")
	mgr := flag.String("manager", "", "ideal-manager address (policy=ideal; start one with lbmanager)")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	if *nodesPath == "" && *dirAddr == "" {
		fmt.Fprintln(os.Stderr, "lbclient: one of -nodes or -dir is required")
		os.Exit(2)
	}
	var dir cluster.ServiceDirectory
	if *dirAddr != "" {
		remote, err := cluster.DialDirectory(nil, *dirAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbclient:", err)
			os.Exit(1)
		}
		defer remote.Close()
		dir = remote
	} else {
		eps, err := parseNodes(*nodesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbclient:", err)
			os.Exit(1)
		}
		if len(eps) == 0 {
			fmt.Fprintln(os.Stderr, "lbclient: no nodes")
			os.Exit(1)
		}
		dir = cluster.FixedDirectory(eps)
	}

	p, err := core.ParsePolicy(*pname, *d, *discard, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbclient:", err)
		os.Exit(2)
	}

	c, err := cluster.NewClient(cluster.ClientConfig{
		Service: "translate", Policy: p,
		Directory: dir, ManagerAddr: *mgr, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbclient:", err)
		os.Exit(1)
	}
	defer c.Close()

	rng := stats.NewRNG(*seed)
	var mu sync.Mutex
	resp := stats.NewSummary(true)
	poll := stats.NewSummary(false)
	var errs int64
	var wg sync.WaitGroup

	end := time.Now().Add(*duration)
	next := time.Now()
	meanInterval := time.Duration(float64(time.Second) / *rate)
	for time.Now().Before(end) {
		// Poisson arrivals at the requested rate.
		next = next.Add(time.Duration(float64(meanInterval) * rng.ExpFloat64()))
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		arrival := next
		svcUs := uint32(*serviceMs * 1e3 * rng.ExpFloat64())
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := c.Access(svcUs, nil)
			elapsed := time.Since(arrival)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			resp.Add(elapsed.Seconds())
			if info.PollTime > 0 {
				poll.Add(info.PollTime.Seconds())
			}
		}()
	}
	wg.Wait()

	fmt.Printf("policy      %s against %d nodes at %.0f/s for %v\n", p, len(c.Endpoints()), *rate, *duration)
	if resp.N() == 0 {
		fmt.Println("no successful accesses")
		os.Exit(1)
	}
	fmt.Printf("accesses    %d ok, %d errors\n", resp.N(), errs)
	fmt.Printf("response    mean %.3fms  p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		resp.Mean()*1e3, resp.Percentile(0.5)*1e3, resp.Percentile(0.95)*1e3, resp.Percentile(0.99)*1e3)
	if poll.N() > 0 {
		fmt.Printf("polling     mean %.3fms  max %.3fms\n", poll.Mean()*1e3, poll.Max()*1e3)
	}
}
