package finelb_test

import (
	"testing"

	"finelb"
)

// TestFacadeSimulate exercises the public simulation surface end to end.
func TestFacadeSimulate(t *testing.T) {
	w := finelb.FineGrain().ScaledTo(4, 0.6)
	res, err := finelb.Simulate(finelb.SimConfig{
		Servers: 4, Workload: w, Policy: finelb.NewPoll(2),
		Accesses: 5000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponse() <= 0 {
		t.Fatal("no measurements")
	}
}

// TestFacadePrototype exercises the public prototype surface end to end.
func TestFacadePrototype(t *testing.T) {
	w := finelb.PoissonExp(2e-3).ScaledTo(2, 0.4)
	res, err := finelb.ProtoSubstrate{}.Run(finelb.RunSpec{
		Servers: 2, Clients: 1, Workload: w,
		Policy:   finelb.NewPollDiscard(2, finelb.DiscardThreshold),
		Accesses: 400, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lost is the run snapshot's lb_lost_total.
	if res.Lost != 0 {
		t.Fatalf("lost: %d", res.Lost)
	}
	if res.Responses == 0 {
		t.Fatal("no responses")
	}
}

// TestFacadeClusterComposition builds a cluster from the exported
// pieces directly, the way examples/ do.
func TestFacadeClusterComposition(t *testing.T) {
	dir := finelb.NewDirectory(0)
	node, err := finelb.StartNode(finelb.NodeConfig{
		ID: 0, Service: "svc", Directory: dir, SlowProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	client, err := finelb.NewClient(finelb.ClientConfig{
		Directory: dir, Service: "svc", Policy: finelb.NewRandom(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	info, err := client.Access(500, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(info.Resp.Payload) != "hello" {
		t.Fatalf("echo payload %q", info.Resp.Payload)
	}
	if len(finelb.PaperWorkloads()) != 3 {
		t.Fatal("paper workloads missing")
	}
}
