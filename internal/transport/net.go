package transport

import (
	"net"
	"net/netip"
	"sync"
	"time"
)

// Net is the real-socket transport: loopback TCP streams and UDP
// datagrams, exactly what the prototype used before the transport
// seam existed. The zero value is ready to use; every Net value
// shares the one OS network stack.
type Net struct{}

// Listen implements Transport.
func (Net) Listen() (Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return netListener{ln}, nil
}

// Dial implements Transport.
func (Net) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		return net.Dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// ListenPacket implements Transport.
func (Net) ListenPacket() (PacketConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	return &netPacketConn{c: conn}, nil
}

// DialPacket implements Transport. Net carries every link alike.
func (Net) DialPacket(addr string, _ Link) (PacketConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return &netPacketConn{c: conn}, nil
}

type netListener struct{ ln net.Listener }

func (l netListener) Accept() (net.Conn, error) { return l.ln.Accept() }
func (l netListener) Addr() string              { return l.ln.Addr().String() }
func (l netListener) Close() error              { return l.ln.Close() }

// netPacketConn adapts *net.UDPConn to PacketConn. It caches peer
// addresses both ways, so the node's inquiry reader (one ReadFrom per
// inquiry) and answer path (one WriteTo per inquiry) neither format
// nor parse the same client address thousands of times.
type netPacketConn struct {
	c *net.UDPConn

	mu    sync.Mutex                //lint:guards peers, names
	peers map[string]netip.AddrPort // WriteTo destinations, resolved once
	names map[netip.AddrPort]string // ReadFrom sources, formatted once
}

// netAddrCacheMax bounds each address cache; a full cache starts over
// rather than growing with every peer a long-lived socket has seen.
const netAddrCacheMax = 4096

//lint:noalloc steady state; the first datagram from a source formats its name once
func (p *netPacketConn) ReadFrom(b []byte) (int, string, error) {
	n, ap, err := p.c.ReadFromUDPAddrPort(b)
	if !ap.IsValid() {
		return n, "", err
	}
	p.mu.Lock()
	from, ok := p.names[ap]
	if !ok {
		from = net.UDPAddrFromAddrPort(ap).String()
		if p.names == nil || len(p.names) >= netAddrCacheMax {
			//lint:allow noalloc the cache is minted on the first datagram and again only when it fills up
			p.names = make(map[netip.AddrPort]string)
		}
		p.names[ap] = from
	}
	p.mu.Unlock()
	return n, from, err
}

//lint:noalloc steady state; the first datagram to an address resolves it once
func (p *netPacketConn) WriteTo(b []byte, to string) (int, error) {
	p.mu.Lock()
	ap, ok := p.peers[to]
	p.mu.Unlock()
	if !ok {
		addr, err := net.ResolveUDPAddr("udp", to)
		if err != nil {
			return 0, err
		}
		// Unmapped, because WriteToUDPAddrPort on an IPv4 socket
		// rejects the v4-in-v6 form a resolver may return.
		ap = netip.AddrPortFrom(addr.AddrPort().Addr().Unmap(), uint16(addr.Port))
		p.mu.Lock()
		if p.peers == nil || len(p.peers) >= netAddrCacheMax {
			//lint:allow noalloc the cache is minted on the first send and again only when it fills up
			p.peers = make(map[string]netip.AddrPort)
		}
		p.peers[to] = ap
		p.mu.Unlock()
	}
	return p.c.WriteToUDPAddrPort(b, ap)
}

func (p *netPacketConn) Read(b []byte) (int, error)        { return p.c.Read(b) }
func (p *netPacketConn) Write(b []byte) (int, error)       { return p.c.Write(b) }
func (p *netPacketConn) LocalAddr() string                 { return p.c.LocalAddr().String() }
func (p *netPacketConn) SetReadDeadline(t time.Time) error { return p.c.SetReadDeadline(t) }
func (p *netPacketConn) Close() error                      { return p.c.Close() }
