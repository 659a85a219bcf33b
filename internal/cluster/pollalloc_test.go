package cluster

import (
	"testing"
	"time"

	"finelb/internal/transport"
)

// TestPollPathZeroAllocs is the poll hot path's allocation gate
// (DESIGN.md §12): the codecs reusing pooled buffers, the decoders on
// both valid and garbage datagrams, and a whole poll round on the mem
// fabric — encode, fan-out, synchronous demux, decision — must
// allocate nothing in steady state. Like the simcluster gate, it is
// skipped under -race, whose instrumentation perturbs allocation
// accounting.
func TestPollPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}

	t.Run("codecs", func(t *testing.T) {
		inqBuf := make([]byte, 0, inquirySize)
		loadBuf := make([]byte, 0, loadSize)
		if avg := testing.AllocsPerRun(1000, func() {
			inqBuf = EncodeInquiry(inqBuf, 7)
			loadBuf = EncodeLoad(loadBuf, 7, 42)
		}); avg != 0 {
			t.Errorf("encode into pooled buffers allocates %.4f allocs/op, want 0", avg)
		}
		inq := EncodeInquiry(nil, 9)
		load := EncodeLoad(nil, 9, 3)
		garbage := []byte{0xde, 0xad, 0xbe}
		if avg := testing.AllocsPerRun(1000, func() {
			_, _ = DecodeInquiry(inq)
			_, _, _ = DecodeLoad(load)
			_, _ = DecodeInquiry(garbage)
			_, _, _ = DecodeLoad(garbage)
		}); avg != 0 {
			t.Errorf("decode allocates %.4f allocs/op, want 0", avg)
		}
	})

	t.Run("poll_round_mem", func(t *testing.T) {
		tr := transport.NewMem(transport.MemConfig{Seed: 1})
		c, eps := pollBenchCluster(t, tr, 8, 4)
		info := &AccessInfo{PollRTTs: make([]time.Duration, 0, 4)}
		// Prime the round pool and steady-state map sizes.
		for i := 0; i < 200; i++ {
			if _, ok, err := c.PollRound(eps, info); err != nil || !ok {
				t.Fatalf("priming round failed: ok=%v err=%v", ok, err)
			}
			info.PollRTTs = info.PollRTTs[:0]
		}
		if avg := testing.AllocsPerRun(1000, func() {
			_, ok, err := c.PollRound(eps, info)
			if err != nil || !ok {
				t.Fatalf("round failed: ok=%v err=%v", ok, err)
			}
			info.PollRTTs = info.PollRTTs[:0]
		}); avg != 0 {
			t.Errorf("steady-state poll round allocates %.4f allocs/round, want 0", avg)
		}
	})
}

// TestAccessAllocCeiling caps what one whole access costs on the mem
// fabric, client and node sides together, at one over the measured
// count (9 and 6): a policy access (poll round, request, service,
// reply) and a pinned AccessNode. The mapping table is shared, not
// copied, per access; fabric streams arm no timer per deadline; the
// stream codecs build and peek frame headers in the bufio buffers; and
// a call's wait state is pooled. Any of those regressions pushes the
// count over its ceiling.
func TestAccessAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	const accessCeiling, accessNodeCeiling = 10, 7
	c, eps := pollBenchCluster(t, transport.NewMem(transport.MemConfig{Seed: 1}), 16, 3)
	payload := []byte("payload")
	node := eps[3].NodeID
	for i := 0; i < 300; i++ {
		if _, err := c.Access(0, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AccessNode(node, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := c.Access(0, payload); err != nil {
			t.Fatal(err)
		}
	}); avg > accessCeiling {
		t.Errorf("Access allocates %.0f allocs/op, ceiling %d", avg, accessCeiling)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := c.AccessNode(node, 0, payload); err != nil {
			t.Fatal(err)
		}
	}); avg > accessNodeCeiling {
		t.Errorf("AccessNode allocates %.0f allocs/op, ceiling %d", avg, accessNodeCeiling)
	}
}
