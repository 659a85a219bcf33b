package simcluster

import "finelb/internal/obs"

// tally is a run's event bookkeeping. A run is one goroutine with a
// private registry, so each event is counted once, in a plain field,
// and collect publishes the totals into the obs.RunMetrics catalog and
// the Result in one step. The values equal what live atomic updates
// would have left: counters and gauges are integers, and each
// histogram's sum accumulates in observation order.
type tally struct {
	msg MessageCount // Result.Messages; poll and dispatch counts publish too

	completions, retries, quarantines, pollLate int64
	served, inquiriesServed, inquiriesDropped   int64

	serverActive, workersBusy level

	response, pollWait, pollRTT hist
}

// level is a plain gauge: the current level and its high-water mark.
type level struct{ v, high int64 }

// add moves the level by delta.
//
//lint:noalloc
func (l *level) add(delta int64) {
	l.v += delta
	if l.v > l.high {
		l.high = l.v
	}
}

// publish leaves g at the level with the high-water mark. Gauge.Set
// raises the mark to the value it sets, so setting the peak first and
// the level second leaves both.
func (l level) publish(g *obs.Gauge) {
	g.Set(l.high)
	g.Set(l.v)
}

// hist is a plain histogram over bounds: per-bucket counts, indexed as
// obs.BucketIndex numbers them, and the running sum.
type hist struct {
	bounds []float64
	counts []int64
	sum    float64
}

func newHist(bounds []float64) hist {
	return hist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// observe records one value.
//
//lint:noalloc
func (h *hist) observe(x float64) {
	h.counts[obs.BucketIndex(h.bounds, x)]++
	h.sum += x
}

func newTally() tally {
	lat := obs.LatencyBuckets()
	return tally{response: newHist(lat), pollWait: newHist(lat), pollRTT: newHist(lat)}
}

// publish records the tally into the run's catalog, lost accesses
// included.
func (t *tally) publish(rm *obs.RunMetrics, lost int64) {
	rm.Dispatches.Add(t.msg.Dispatches)
	rm.Completions.Add(t.completions)
	rm.Lost.Add(lost)
	rm.Retries.Add(t.retries)

	rm.PollRequests.Add(t.msg.PollRequests)
	rm.PollResponses.Add(t.msg.PollResponses)
	rm.PollDiscards.Add(t.msg.PollsDiscarded)
	rm.PollLate.Add(t.pollLate)
	rm.Quarantines.Add(t.quarantines)

	t.serverActive.publish(rm.ServerActive)
	t.workersBusy.publish(rm.WorkersBusy)
	rm.ServerServed.Add(t.served)
	rm.InquiriesServed.Add(t.inquiriesServed)
	rm.InquiriesDropped.Add(t.inquiriesDropped)

	rm.ResponseSeconds.Fold(t.response.counts, t.response.sum)
	rm.PollWaitSeconds.Fold(t.pollWait.counts, t.pollWait.sum)
	rm.PollRTTSeconds.Fold(t.pollRTT.counts, t.pollRTT.sum)
}
