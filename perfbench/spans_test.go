package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{access: 1, name: spanAccess, start: 0, end: ms(10)},
		{access: 1, name: spanLookup, parent: spanAccess, start: 0, end: ms(1)},
		{access: 1, name: spanPoll, parent: spanAccess, start: ms(1), end: ms(6)},
		{access: 1, name: spanDispatch, parent: spanAccess, start: ms(6), end: ms(9)},
		// A second access with the same span names must not be mixed in.
		{access: 2, name: spanAccess, start: ms(20), end: ms(25)},
		{access: 2, name: spanPoll, parent: spanAccess, start: ms(20), end: ms(22)},
	}
	want := []time.Duration{ms(1), ms(1), ms(5), ms(3), ms(3), ms(2)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s/%d) self = %v, want %v", i, spans[i].name, spans[i].access, got[i], want[i])
		}
	}
}

func TestSelfTimeOverlappingAndClippedChildren(t *testing.T) {
	spans := []span{
		{access: 7, name: spanHTTP, start: ms(10), end: ms(20)},
		// Overlapping children count once; a child outside the parent's
		// interval is clipped to it.
		{access: 7, name: spanServe, parent: spanHTTP, start: ms(12), end: ms(16)},
		{access: 7, name: spanServe, parent: spanHTTP, start: ms(14), end: ms(18)},
		{access: 7, name: spanServe, parent: spanHTTP, start: ms(19), end: ms(25)},
	}
	if got := selfTimes(spans)[0]; got != ms(3) {
		t.Errorf("self = %v, want 3ms (10ms minus [12,18) and [19,20))", got)
	}
}

func TestUnionLength(t *testing.T) {
	iv := [][2]time.Duration{{ms(5), ms(7)}, {ms(0), ms(2)}, {ms(1), ms(3)}, {ms(6), ms(6)}}
	if got := unionLength(iv); got != ms(5) {
		t.Errorf("union = %v, want 5ms", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("empty union = %v", got)
	}
}

func TestSpanLogJoinsAcrossLogs(t *testing.T) {
	epoch := time.Now()
	caller, handler := newSpanLog(epoch), newSpanLog(epoch)
	caller.add(3, spanHTTP, spanNone, epoch, epoch.Add(ms(8)))
	handler.add(3, spanServe, spanHTTP, epoch.Add(ms(2)), epoch.Add(ms(5)))
	st := collectSpanStats(mergeSpans(caller, handler))
	if got := st.self[spanHTTP]; len(got) != 1 || got[0] != 5000 {
		t.Errorf("http self = %v µs, want [5000]", got)
	}
	if got := st.dur[spanServe]; len(got) != 1 || got[0] != 3000 {
		t.Errorf("serve dur = %v µs, want [3000]", got)
	}
}

func TestWriteSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "spans.tsv")
	err := writeSpans(path, []span{{access: 1, name: spanPoll, parent: spanAccess, start: 5, end: 9}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "1\tcluster.poll\taccess\t5\t9\n"; !strings.HasSuffix(string(b), want) {
		t.Errorf("spans file = %q, want suffix %q", b, want)
	}
}
