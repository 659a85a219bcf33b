package cluster

import (
	"testing"
	"time"
)

func ep(node int, service string, parts ...uint32) Endpoint {
	return Endpoint{
		NodeID:     node,
		Service:    service,
		Partitions: parts,
		AccessAddr: "127.0.0.1:1",
		LoadAddr:   "127.0.0.1:2",
	}
}

func TestDirectoryPublishLookup(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Publish(ep(2, "img"))
	d.Publish(ep(0, "img"))
	d.Publish(ep(1, "other"))
	got, _ := d.Lookup("img", 0)
	if len(got) != 2 {
		t.Fatalf("lookup returned %d endpoints", len(got))
	}
	if got[0].NodeID != 0 || got[1].NodeID != 2 {
		t.Fatalf("lookup not sorted by node: %+v", got)
	}
}

func TestDirectoryPartitionFilter(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Publish(ep(0, "img", 0, 9))   // partitions 0-9 style
	d.Publish(ep(1, "img", 10, 19)) // partitions 10-19
	d.Publish(ep(2, "img"))         // hosts everything
	if got, _ := d.Lookup("img", 9); len(got) != 2 || got[0].NodeID != 0 || got[1].NodeID != 2 {
		t.Fatalf("partition 9 lookup: %+v", got)
	}
	if got, _ := d.Lookup("img", 10); len(got) != 2 || got[0].NodeID != 1 {
		t.Fatalf("partition 10 lookup: %+v", got)
	}
}

func TestDirectorySoftStateExpiry(t *testing.T) {
	d := NewDirectory(100 * time.Millisecond)
	now := time.Unix(0, 0)
	d.setClock(func() time.Time { return now })
	d.Publish(ep(0, "img"))
	if d.Len() != 1 {
		t.Fatalf("len = %d", d.Len())
	}
	now = now.Add(50 * time.Millisecond)
	if got, _ := d.Lookup("img", 0); len(got) != 1 {
		t.Fatalf("entry expired early: %+v", got)
	}
	// Refresh extends the lease.
	d.Publish(ep(0, "img"))
	now = now.Add(90 * time.Millisecond)
	if got, _ := d.Lookup("img", 0); len(got) != 1 {
		t.Fatal("refreshed entry expired")
	}
	// Without refresh, it dies.
	now = now.Add(101 * time.Millisecond)
	if got, _ := d.Lookup("img", 0); len(got) != 0 {
		t.Fatalf("stale entry survived: %+v", got)
	}
	if d.Len() != 0 {
		t.Fatalf("len after expiry = %d", d.Len())
	}
}

func TestDirectoryRepublishOverwrites(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Publish(ep(0, "img"))
	updated := ep(0, "img")
	updated.AccessAddr = "127.0.0.1:99"
	d.Publish(updated)
	got, _ := d.Lookup("img", 0)
	if len(got) != 1 || got[0].AccessAddr != "127.0.0.1:99" {
		t.Fatalf("republish did not overwrite: %+v", got)
	}
}

func TestDirectoryServices(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Publish(ep(0, "b"))
	d.Publish(ep(1, "a"))
	d.Publish(ep(2, "a"))
	got := d.Services()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("services = %v", got)
	}
}

func TestEndpointHasPartition(t *testing.T) {
	e := ep(0, "s", 3, 5)
	if !e.HasPartition(3) || !e.HasPartition(5) || e.HasPartition(4) {
		t.Fatal("partition membership wrong")
	}
	all := ep(0, "s")
	if !all.HasPartition(123) {
		t.Fatal("unpartitioned endpoint must host everything")
	}
}

func TestDirectoryConcurrentAccess(t *testing.T) {
	d := NewDirectory(time.Minute)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			d.Publish(ep(i%8, "img"))
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		d.Lookup("img", 0)
		d.Services()
	}
	<-done
	if d.Len() != 8 {
		t.Fatalf("len = %d, want 8", d.Len())
	}
}
