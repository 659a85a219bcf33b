package neptune

import (
	"fmt"
	"sync"

	"finelb/internal/cluster"
	"finelb/internal/core"
)

// ClientConfig configures a Neptune service client.
type ClientConfig struct {
	Directory *cluster.Directory
	Service   string
	// Level must match the servers' consistency level.
	Level Level
	// ReadPolicy load-balances queries across a partition's replicas;
	// this is where the paper's policies plug into Neptune. The zero
	// value is the random policy; the paper's recommendation is
	// core.NewPollDiscard(2, 10*time.Millisecond).
	ReadPolicy core.Policy
	Seed       uint64
}

// Client accesses a replicated Neptune service: queries are spread over
// replicas by a load-balancing policy; writes follow the replication
// protocol of the configured consistency level.
type Client struct {
	cfg    ClientConfig
	caller *cluster.Caller

	mu    sync.Mutex
	reads map[uint32]*cluster.Client // balanced read path per partition
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Directory == nil {
		return nil, fmt.Errorf("neptune: ClientConfig.Directory is required")
	}
	if cfg.Service == "" {
		return nil, fmt.Errorf("neptune: empty service name")
	}
	if err := cfg.ReadPolicy.Validate(); err != nil {
		return nil, err
	}
	return &Client{
		cfg:    cfg,
		caller: cluster.NewCaller(nil, 0),
		reads:  make(map[uint32]*cluster.Client),
	}, nil
}

// Close releases all sockets.
func (c *Client) Close() error {
	c.mu.Lock()
	reads := c.reads
	c.reads = nil
	c.mu.Unlock()
	for _, rc := range reads {
		rc.Close()
	}
	c.caller.Close()
	return nil
}

// readClient returns (creating if needed) the balanced client for one
// partition.
func (c *Client) readClient(partition uint32) (*cluster.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reads == nil {
		return nil, fmt.Errorf("neptune: client closed")
	}
	if rc, ok := c.reads[partition]; ok {
		return rc, nil
	}
	rc, err := cluster.NewClient(cluster.ClientConfig{
		Directory: c.cfg.Directory,
		Service:   c.cfg.Service,
		Partition: partition,
		Policy:    c.cfg.ReadPolicy,
		Seed:      c.cfg.Seed + uint64(partition)*131,
	})
	if err != nil {
		return nil, err
	}
	c.reads[partition] = rc
	return rc, nil
}

// Query invokes a read-only method on one replica of the partition,
// chosen by the read policy. serviceUs optionally emulates extra
// compute on the server (0 for none).
func (c *Client) Query(partition uint32, method string, arg []byte, serviceUs uint32) ([]byte, error) {
	rc, err := c.readClient(partition)
	if err != nil {
		return nil, err
	}
	payload, err := encodeEnvelope(envelope{op: opQuery, method: method, arg: arg})
	if err != nil {
		return nil, err
	}
	info, err := rc.Access(serviceUs, payload)
	if err != nil {
		return nil, err
	}
	return resultOf(info.Resp)
}

// Write invokes a mutating method on the partition through the
// replication protocol and returns the primary's (or, for Commutative,
// the first replica's) result.
func (c *Client) Write(partition uint32, method string, arg []byte, serviceUs uint32) ([]byte, error) {
	eps, _ := c.cfg.Directory.Lookup(c.cfg.Service, partition) // an in-process lookup never fails
	if len(eps) == 0 {
		return nil, fmt.Errorf("neptune: no live replicas for %s partition %d", c.cfg.Service, partition)
	}
	payload, err := encodeEnvelope(envelope{op: opWrite, method: method, arg: arg})
	if err != nil {
		return nil, err
	}
	switch c.cfg.Level {
	case PrimaryOrdered:
		// The primary is the lowest-id live replica; it fans out.
		resp, err := c.caller.Call(eps[0], c.cfg.Service, partition, serviceUs, payload)
		if err != nil {
			return nil, err
		}
		return resultOf(resp)

	case Commutative:
		// Write-anywhere: the client multicasts to every replica; all
		// must acknowledge.
		type reply struct {
			out []byte
			err error
		}
		replies := make([]reply, len(eps))
		var wg sync.WaitGroup
		for i, ep := range eps {
			i, ep := i, ep
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := c.caller.Call(ep, c.cfg.Service, partition, serviceUs, payload)
				if err != nil {
					replies[i] = reply{nil, err}
					return
				}
				out, err := resultOf(resp)
				replies[i] = reply{out, err}
			}()
		}
		wg.Wait()
		var out []byte
		for i, r := range replies {
			if r.err != nil {
				return nil, fmt.Errorf("neptune: write to replica %d: %w", eps[i].NodeID, r.err)
			}
			if out == nil {
				out = r.out
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("neptune: unknown consistency level %d", int(c.cfg.Level))
	}
}

// Replicas exposes the live replica set of a partition (diagnostics).
func (c *Client) Replicas(partition uint32) []cluster.Endpoint {
	eps, _ := c.cfg.Directory.Lookup(c.cfg.Service, partition) // an in-process lookup never fails
	return eps
}

// resultOf converts a wire response into (result, error).
func resultOf(resp *cluster.Response) ([]byte, error) {
	switch resp.Status {
	case cluster.StatusOK:
		return resp.Payload, nil
	case cluster.StatusAppError:
		return nil, fmt.Errorf("neptune: %s", resp.Payload)
	default:
		return nil, fmt.Errorf("neptune: server status %d", resp.Status)
	}
}
