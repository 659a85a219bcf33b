// Command lbdir runs a standalone service-availability directory
// server — the paper's "well-known central directory" (§3.1) — so that
// lbnode and lbclient processes can discover each other without static
// address files. The directory runs as a prototype Node service; lbdir
// prints its stream address on stdout and serves until interrupted.
//
// Usage:
//
//	lbdir &                                  # prints e.g. 127.0.0.1:45231
//	lbnode -n 8 -dir 127.0.0.1:45231 &
//	lbclient -dir 127.0.0.1:45231 -policy poll -d 2 -rate 500 -duration 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"finelb/internal/cluster"
)

func main() {
	ttl := flag.Duration("ttl", cluster.DefaultTTL, "soft-state lifetime of published entries")
	flag.Parse()

	s, err := cluster.StartDirServer(nil, nil, *ttl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbdir:", err)
		os.Exit(1)
	}
	fmt.Println(s.Addr())
	fmt.Fprintf(os.Stderr, "lbdir: serving soft state (ttl %v); Ctrl-C to stop\n", *ttl)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-sig:
			s.Close()
			return
		case <-time.After(10 * time.Second):
			fmt.Fprintf(os.Stderr, "lbdir: %d live entries, services %v\n",
				s.Directory().Len(), s.Directory().Services())
		}
	}
}
