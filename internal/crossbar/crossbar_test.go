package crossbar

import (
	"testing"

	"assasin/internal/sim"
)

func TestCutThroughLatencyOnly(t *testing.T) {
	x := New(Config{Ports: 2, PortBandwidth: 4e9, Latency: 200 * sim.Nanosecond})
	// An uncontended transfer completes at arrival + latency (cut-through).
	done, err := x.Transfer(10*sim.Microsecond, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if done != 10*sim.Microsecond+200*sim.Nanosecond {
		t.Fatalf("done = %v, want arrival+latency", done)
	}
}

func TestPortBandwidthBoundsBursts(t *testing.T) {
	x := New(Config{Ports: 1, PortBandwidth: 4e9, Latency: 0})
	// A burst of transfers arriving together drains at port bandwidth:
	// 10 × 4 KiB at 4 GB/s ≈ 10.24 µs.
	var last sim.Time
	for i := 0; i < 10; i++ {
		d, err := x.Transfer(0, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		last = d
	}
	if last < 8*sim.Microsecond {
		t.Fatalf("burst drained by %v; port bandwidth not enforced", last)
	}
	if x.PortBytes(0) != 40960 {
		t.Fatalf("port bytes = %d", x.PortBytes(0))
	}
}

func TestPortsIndependent(t *testing.T) {
	x := New(DefaultConfig(4))
	d0, _ := x.Transfer(0, 0, 4096)
	d1, _ := x.Transfer(0, 1, 4096)
	if d0 != d1 {
		t.Fatal("idle ports interfere")
	}
}

func TestInvalidPort(t *testing.T) {
	x := New(DefaultConfig(2))
	if _, err := x.Transfer(0, 5, 64); err == nil {
		t.Fatal("invalid port accepted")
	}
	if _, err := x.Transfer(0, -1, 64); err == nil {
		t.Fatal("negative port accepted")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	x := New(Config{Ports: 1, PortBandwidth: 1e9, Latency: 0})
	x.Transfer(0, 0, 1000) // 1 µs of occupancy
	u := x.ports[0].Utilization(10 * sim.Microsecond)
	if u < 0.09 || u > 0.11 {
		t.Fatalf("utilization = %.3f, want ~0.1", u)
	}
}

func TestZeroPortsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}
