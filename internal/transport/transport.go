// Package transport abstracts everything the prototype does with the
// network — UDP load inquiries, TCP service accesses, UDP directory
// traffic — behind a small set of interfaces so the same cluster code
// runs over two substrates:
//
//   - Net: real loopback sockets, the paper's Figure 6 conditions.
//   - Mem: an in-process channel fabric with a seedable latency/loss
//     model and no file descriptors, for deterministic fast runs and
//     clusters beyond OS socket limits.
//
// Addresses are plain strings in whatever format the transport issues
// ("127.0.0.1:53412" for Net, "mem:7" for Mem); components treat them
// as opaque tokens obtained from LocalAddr/Addr and passed back to
// Dial/DialPacket/WriteTo.
//
// Injected per-link faults (faults.LinkRule) are not replayed here:
// the cluster client's poll fan-out replays them before each inquiry
// leaves, so both transports carry exactly the datagrams the schedule
// lets through.
package transport

import (
	"fmt"
	"net"
	"time"
)

// Link identifies the logical client→server edge a dialed packet
// connection belongs to. Net and Mem carry every link alike; use
// NoLink for traffic that belongs to no such edge (directory lookups).
type Link struct {
	Client int
	Server int
}

// NoLink marks a packet connection that belongs to no client→server
// edge.
var NoLink = Link{Client: -1, Server: -1}

// PacketConn is a datagram endpoint (UDP-like: unreliable, unordered
// in principle, message-preserving). A listening conn (ListenPacket)
// uses ReadFrom/WriteTo with peer addresses; a dialed conn
// (DialPacket) uses Read/Write against its fixed peer.
type PacketConn interface {
	// ReadFrom receives one datagram and the sender's address.
	ReadFrom(p []byte) (n int, from string, err error)
	// WriteTo sends one datagram to addr. Sends to unknown or dead
	// addresses are silently dropped, as UDP drops them.
	WriteTo(p []byte, addr string) (int, error)
	// Read receives one datagram on a dialed connection.
	Read(p []byte) (int, error)
	// Write sends one datagram to the dialed peer.
	Write(p []byte) (int, error)
	// LocalAddr is the address peers send datagrams back to.
	LocalAddr() string
	// SetReadDeadline bounds future Read/ReadFrom calls; reads past
	// the deadline fail with a timeout error (os.ErrDeadlineExceeded).
	SetReadDeadline(t time.Time) error
	Close() error
}

// PacketHandler processes one received datagram. The payload is only
// valid for the duration of the call — implementations must copy
// anything they keep — and the handler must not block: on transports
// that deliver synchronously it runs on the sender's goroutine.
type PacketHandler func(p []byte, from string)

// HandlerPacketConn is an optional PacketConn capability: a receiver
// can install a handler invoked per datagram instead of parking a
// goroutine in Read. On the in-memory fabric an undelayed datagram
// then flows sender → handler synchronously — no queue, no copy, no
// goroutine wakeup — which is what lets a node answer a load inquiry
// on the inquiring client's goroutine, so a whole poll round runs
// there (DESIGN.md §12). Transports without
// the capability (real sockets) simply don't implement it, and
// callers fall back to a read loop. SetPacketHandler reports whether
// the handler was installed; install it before any traffic arrives,
// because datagrams already queued for Read stay queued.
type HandlerPacketConn interface {
	SetPacketHandler(h PacketHandler) bool
}

// Listener accepts stream connections (TCP-like: reliable, ordered
// byte streams satisfying net.Conn).
type Listener interface {
	Accept() (net.Conn, error)
	// Addr is the address Dial reaches this listener at.
	Addr() string
	Close() error
}

// Transport is one messaging substrate: it can open stream and
// datagram endpoints and connect to them by address. Implementations
// are safe for concurrent use by any number of nodes and clients.
type Transport interface {
	// Listen opens a stream listener on a fresh address.
	Listen() (Listener, error)
	// Dial connects to a stream listener. A non-positive timeout means
	// no bound.
	Dial(addr string, timeout time.Duration) (net.Conn, error)
	// ListenPacket opens a datagram endpoint on a fresh address.
	ListenPacket() (PacketConn, error)
	// DialPacket opens a datagram endpoint connected to addr, so Write
	// needs no address and Read sees only that peer's datagrams. link
	// names the logical edge (NoLink when none).
	DialPacket(addr string, link Link) (PacketConn, error)
}

// Default returns the transport used when a component's config leaves
// the choice empty: real loopback sockets, preserving the prototype's
// original behavior.
func Default() Transport { return Net{} }

// ByName resolves a transport name as the tools and experiments spell
// it: "" or "net" for real loopback sockets, "mem" for a fresh
// in-memory fabric seeded with seed. Any other name is an error.
func ByName(name string, seed uint64) (Transport, error) {
	switch name {
	case "", "net":
		return Net{}, nil
	case "mem":
		return NewMem(MemConfig{Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown transport %q (want net or mem)", name)
	}
}
