// Package crossbar models the all-to-all interconnect between flash
// controllers and ASSASIN cores (Section V-A). Any controller can deliver
// pages to any core's input stream buffer, which is what lets ASSASIN pool
// compute across channels and stay robust to flash layout skew while the
// FTL places pages wherever it likes.
//
// The model is a set of core-side ingress ports, each a bandwidth server
// provisioned above the per-channel flash bandwidth so the crossbar itself
// is never the bottleneck in balanced operation (the paper reports >98%
// core utilization; Fig. 16-18). Channel-side egress contention is already
// captured by the flash channel bus servers.
package crossbar

import (
	"fmt"

	"assasin/internal/sim"
	"assasin/internal/telemetry"
)

// Config sizes the crossbar.
type Config struct {
	// Ports is the number of core-side ports.
	Ports int
	// PortBandwidth is each port's bandwidth in bytes/second.
	PortBandwidth float64
	// Latency is the fixed traversal latency per transfer.
	Latency sim.Time
}

// DefaultConfig provisions 4 GB/s ports (4x one flash channel, so a port
// can absorb multi-channel catch-up bursts after array-read jitter) with a
// small traversal latency.
func DefaultConfig(ports int) Config {
	return Config{Ports: ports, PortBandwidth: 4e9, Latency: 200 * sim.Nanosecond}
}

// Tel is the crossbar telemetry bundle. A grant is any accepted transfer;
// a conflict is a transfer that found its target port still busy with
// earlier traffic (i.e. arbitration made it queue).
type Tel struct {
	Grants    *telemetry.Counter
	Conflicts *telemetry.Counter
	Bytes     *telemetry.Counter
}

// NewTel registers the crossbar metrics on sink (nil sink -> nil Tel).
func NewTel(sink *telemetry.Sink) *Tel {
	if sink == nil {
		return nil
	}
	return &Tel{
		Grants:    sink.Counter("xbar", "grants"),
		Conflicts: sink.Counter("xbar", "conflicts"),
		Bytes:     sink.Counter("xbar", "bytes"),
	}
}

// Crossbar is the interconnect instance.
type Crossbar struct {
	cfg   Config
	ports []*sim.BandwidthServer

	// Tel, when non-nil, counts grants/conflicts/bytes per Transfer.
	Tel *Tel
}

// New returns a crossbar with cfg.Ports ingress ports.
func New(cfg Config) *Crossbar {
	if cfg.Ports <= 0 {
		panic("crossbar: no ports")
	}
	x := &Crossbar{cfg: cfg}
	for i := 0; i < cfg.Ports; i++ {
		x.ports = append(x.ports, sim.NewBandwidthServer(fmt.Sprintf("xbar-port%d", i), cfg.PortBandwidth, cfg.Latency))
	}
	return x
}

// Config returns the crossbar configuration.
func (x *Crossbar) Config() Config { return x.cfg }

// Transfer moves size bytes to core-side port at time at, returning the
// delivery completion time. The crossbar cuts through: a page flowing off a
// flash channel streams into the target buffer as it arrives, so an
// uncontended transfer adds only the traversal latency. Port bandwidth
// still bounds aggregate delivery (contended transfers queue).
func (x *Crossbar) Transfer(at sim.Time, port, size int) (sim.Time, error) {
	if port < 0 || port >= len(x.ports) {
		return 0, fmt.Errorf("crossbar: port %d out of range", port)
	}
	srv := x.ports[port]
	if t := x.Tel; t != nil {
		t.Grants.Inc()
		t.Bytes.Add(int64(size))
		if srv.NextFree() > at {
			t.Conflicts.Inc()
		}
	}
	occupied := srv.TransferTime(size)
	// Charge occupancy as if the transfer started streaming one transfer
	// time ago — cut-through: completion is gated by port backlog, not by
	// an extra store-and-forward hop.
	done := srv.Access(at-occupied, size)
	if done < at+x.cfg.Latency {
		done = at + x.cfg.Latency
	}
	return done, nil
}

// PortBytes returns the bytes delivered through one port.
func (x *Crossbar) PortBytes(port int) int64 { return x.ports[port].Bytes() }

// PortBusy returns one port's cumulative busy time.
func (x *Crossbar) PortBusy(port int) sim.Time { return x.ports[port].BusyTime() }
