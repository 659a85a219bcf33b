// Command lbnode runs standalone prototype server nodes and prints
// their access/load addresses, one pair per line, so lbclient (or any
// other process) can drive them. It serves until interrupted.
//
// Usage:
//
//	lbnode [-n 4] [-service translate] [-workers 1] [-spin]
//	       [-slowprob 0.15] [-seed 1] [-http :0] [-pprof] [-grace 3s]
//
// The first SIGINT/SIGTERM drains: heartbeats stop, directory entries
// are withdrawn, and the nodes keep serving for the -grace window so
// in-flight work completes. A second signal (or the window expiring)
// shuts down.
//
// Output format (stdout), one line per node:
//
//	<id> <access tcp addr> <load udp addr>
//
// With -http the process serves the shared obs metric catalog
// (aggregated across its nodes) at /metrics and, with -pprof, the
// net/http/pprof handlers under /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/obs"
)

func main() {
	n := flag.Int("n", 4, "number of server nodes to run in this process")
	service := flag.String("service", "translate", "service name to host")
	workers := flag.Int("workers", 1, "worker pool size per node")
	spin := flag.Bool("spin", false, "burn CPU for service time instead of sleeping")
	slowProb := flag.Float64("slowprob", cluster.DefaultSlowProb, "busy-node slow-answer probability (negative disables)")
	dirAddr := flag.String("dir", "", "lbdir address to publish soft state to (optional)")
	httpAddr := flag.String("http", "", "serve /metrics (JSON obs snapshot) on this address; empty disables")
	pprofOn := flag.Bool("pprof", false, "with -http, also expose /debug/pprof/ handlers")
	seed := flag.Uint64("seed", 1, "random seed")
	grace := flag.Duration("grace", 3*time.Second, "drain window after the first signal (second signal exits immediately)")
	flag.Parse()

	if *n <= 0 {
		fmt.Fprintln(os.Stderr, "lbnode: -n must be positive")
		os.Exit(2)
	}

	// The directory field stays a nil interface without -dir: a nil
	// *RemoteDirectory inside it would count as a directory.
	var dir cluster.ServiceDirectory
	if *dirAddr != "" {
		remote, err := cluster.DialDirectory(nil, *dirAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbnode:", err)
			os.Exit(1)
		}
		defer remote.Close()
		dir = remote
	}

	// All nodes in this process share one registry, so /metrics shows
	// the process-wide view (per-node detail stays on Node.Stats).
	reg := obs.NewRegistry()
	rm := obs.NewRunMetrics(reg)
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbnode:", err)
			os.Exit(1)
		}
		defer ln.Close()
		go http.Serve(ln, obs.NewMux(reg, *pprofOn))
		fmt.Fprintf(os.Stderr, "lbnode: metrics at http://%s/metrics\n", ln.Addr())
	} else if *pprofOn {
		fmt.Fprintln(os.Stderr, "lbnode: -pprof requires -http")
		os.Exit(2)
	}

	nodes := make([]*cluster.Node, 0, *n)
	for i := 0; i < *n; i++ {
		node, err := cluster.StartNode(cluster.NodeConfig{
			ID:        i,
			Service:   *service,
			Workers:   *workers,
			Spin:      *spin,
			SlowProb:  *slowProb,
			Directory: dir,
			Metrics:   rm,
			Seed:      *seed + uint64(i)*7919,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbnode:", err)
			os.Exit(1)
		}
		nodes = append(nodes, node)
		fmt.Printf("%d %s %s\n", i, node.AccessAddr(), node.LoadAddr())
	}
	fmt.Fprintf(os.Stderr, "lbnode: %d node(s) serving %q; Ctrl-C to drain, twice to stop\n", *n, *service)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// First signal: graceful drain. Heartbeats stop and directory
	// entries are withdrawn from lbdir at once, but every node keeps
	// serving through the grace window so in-flight and freshly routed
	// work completes. A second signal cuts the window short.
	for _, node := range nodes {
		node.Drain()
	}
	fmt.Fprintf(os.Stderr, "lbnode: draining %d node(s) for up to %v; signal again to exit now\n", *n, *grace)
	select {
	case <-sig:
	case <-time.After(*grace):
	}
	for _, node := range nodes {
		node.Close()
	}
	for i, node := range nodes {
		st := node.Stats()
		fmt.Fprintf(os.Stderr, "node %d: served=%d overloads=%d inquiries=%d slow=%d\n",
			i, st.Served, st.Overloads, st.Inquiries, st.SlowPaths)
	}
}
