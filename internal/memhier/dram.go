package memhier

import (
	"assasin/internal/sim"
)

// DRAM models the shared SSD DRAM: a fixed access latency plus bandwidth
// contention with read priority. Like a real memory controller, writes
// (flash fills, writebacks) are posted into a buffer and drained in the
// background, while reads only queue behind other reads — until the total
// backlog exceeds the write-buffer depth, at which point everything is
// throughput-bound. All flash-fill traffic, cache refills/writebacks,
// prefetches and firmware copies contend here — the in-SSD memory wall of
// Section III.
type DRAM struct {
	bw      float64
	latency sim.Time
	// workFinish is when all scheduled traffic (reads+writes) drains at
	// full bandwidth; readFinish serializes the read channel.
	workFinish sim.Time
	readFinish sim.Time
	busy       sim.Time
	bytes      int64
	accesses   int64
	clients    map[string]*DRAMClientStats
}

// DRAMClientStats accumulates one client's traffic.
type DRAMClientStats struct {
	ReadBytes  int64
	WriteBytes int64
	Accesses   int64
}

// DRAMConfig sizes the DRAM model.
type DRAMConfig struct {
	// BandwidthBytesPerSec is the effective sustained bandwidth (the paper
	// evaluates a 2 GB LPDDR5 part at 8 GB/s effective).
	BandwidthBytesPerSec float64
	// Latency is the idle access latency (row activation + CAS + transfer
	// start), applied per access on top of bandwidth occupancy.
	Latency sim.Time
}

// DefaultDRAMConfig matches the paper's evaluation configuration.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{BandwidthBytesPerSec: 8e9, Latency: 60 * sim.Nanosecond}
}

// NewDRAM returns a DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{
		bw:      cfg.BandwidthBytesPerSec,
		latency: cfg.Latency,
		clients: make(map[string]*DRAMClientStats),
	}
	return d
}

func (d *DRAM) transferTime(size int) sim.Time {
	if size <= 0 || d.bw <= 0 {
		return 0
	}
	return sim.Time(float64(size) / d.bw * float64(sim.Second))
}

// DRAMClient names one source of DRAM traffic. Its first access binds it
// to the name's counters, so later accesses do no name lookup; use a client
// with one DRAM only.
type DRAMClient struct {
	Name  string
	stats *DRAMClientStats
}

// Access services a transfer of size bytes for client arriving at time at
// and returns its completion time. Writes are posted (completion is when
// the write buffer drains); reads queue only behind earlier reads unless
// the total backlog exceeds the write buffer.
func (d *DRAM) Access(at sim.Time, size int, write bool, client *DRAMClient) sim.Time {
	st := client.stats
	if st == nil {
		st = d.clients[client.Name]
		if st == nil {
			st = &DRAMClientStats{}
			d.clients[client.Name] = st
		}
		client.stats = st
	}
	st.Accesses++
	d.accesses++
	d.bytes += int64(size)

	t := d.transferTime(size)
	d.busy += t

	// The SSD co-simulation advances cores in small time quanta, so
	// logically concurrent accesses arrive in call order with overlapping
	// timestamps. Allowing the service chains to overlap by one quantum's
	// worth of slack prevents spurious serialization of concurrent cores
	// while still enforcing bandwidth over longer horizons.
	const slack = 2 * sim.Microsecond

	if write {
		// Writes are lowest priority: they queue behind all scheduled
		// traffic. Their completion gates downstream use (a staged page is
		// usable only once written), so saturation backpressures the flash
		// fill path — the closed loop that makes total traffic converge to
		// the DRAM bandwidth.
		st.WriteBytes += int64(size)
		start := sim.MaxT(at, d.workFinish-slack)
		d.workFinish = sim.MaxT(d.workFinish, start) + t
		return start + t + d.latency
	}
	// Reads bypass buffered writes (memory controllers prioritize reads);
	// they queue only behind earlier reads. Read traffic still occupies
	// total bandwidth, delaying writes.
	st.ReadBytes += int64(size)
	start := sim.MaxT(at, d.readFinish-slack)
	d.readFinish = sim.MaxT(d.readFinish, start) + t
	d.workFinish = sim.MaxT(d.workFinish, at) + t
	return start + t + d.latency
}

// TotalBytes returns all bytes transferred.
func (d *DRAM) TotalBytes() int64 { return d.bytes }

// Utilization returns busy fraction over [0, now].
func (d *DRAM) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	u := float64(d.busy) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}

// Client returns a copy of the named client's stats.
func (d *DRAM) Client(name string) DRAMClientStats {
	if st := d.clients[name]; st != nil {
		return *st
	}
	return DRAMClientStats{}
}
