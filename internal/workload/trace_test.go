package workload

import (
	"math"
	"testing"
)

func TestTraceStats(t *testing.T) {
	tr := Trace{
		{Arrival: 1, Service: 0.5},
		{Arrival: 2, Service: 1.5},
		{Arrival: 4, Service: 1.0},
	}
	st := tr.Stats()
	if st.Count != 3 {
		t.Fatalf("count = %d", st.Count)
	}
	if math.Abs(st.ArrivalMean-1.5) > 1e-12 { // intervals 1, 2
		t.Fatalf("arrival mean = %v", st.ArrivalMean)
	}
	if math.Abs(st.ServiceMean-1.0) > 1e-12 {
		t.Fatalf("service mean = %v", st.ServiceMean)
	}
}
