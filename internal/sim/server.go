package sim

// BandwidthServer models a shared, serially-occupied resource such as a DRAM
// channel, a flash channel bus, or a crossbar port. Transfers are serviced
// first-come-first-served: a transfer arriving at time t begins at
// max(t, nextFree), occupies the server for size/bandwidth, and completes
// when the occupation ends (plus any fixed per-access latency).
//
// Because the ASSASIN co-simulation advances multiple cores with a small
// time quantum, arrivals can be slightly out of global time order; the
// server tolerates that by construction (start time is clamped to arrival),
// which keeps utilization accounting exact even if individual orderings are
// approximate.
type BandwidthServer struct {
	name string
	// bytesPerSecond is the sustained service bandwidth.
	bytesPerSecond float64
	// latency is a fixed pipeline latency added to each access completion
	// (it does not occupy the server).
	latency Time

	nextFree Time
	busy     Time  // total occupied time
	bytes    int64 // total bytes served
	accesses int64
}

// NewBandwidthServer returns a server with the given sustained bandwidth in
// bytes per second and fixed per-access latency.
func NewBandwidthServer(name string, bytesPerSecond float64, latency Time) *BandwidthServer {
	return &BandwidthServer{name: name, bytesPerSecond: bytesPerSecond, latency: latency}
}

// Name returns the label given at construction.
func (s *BandwidthServer) Name() string { return s.name }

// TransferTime returns how long size bytes occupy the server.
func (s *BandwidthServer) TransferTime(size int) Time {
	if size <= 0 || s.bytesPerSecond <= 0 {
		return 0
	}
	return Time(float64(size) / s.bytesPerSecond * float64(Second))
}

// Access services a transfer of size bytes arriving at time at and returns
// the completion time (including fixed latency).
func (s *BandwidthServer) Access(at Time, size int) Time {
	start := MaxT(at, s.nextFree)
	dur := s.TransferTime(size)
	s.nextFree = start + dur
	s.busy += dur
	s.bytes += int64(size)
	s.accesses++
	return s.nextFree + s.latency
}

// NextFree returns the earliest time a new transfer could begin service.
func (s *BandwidthServer) NextFree() Time { return s.nextFree }

// BusyTime returns the total time the server has been occupied.
func (s *BandwidthServer) BusyTime() Time { return s.busy }

// Bytes returns the total bytes served.
func (s *BandwidthServer) Bytes() int64 { return s.bytes }

// Accesses returns the number of transfers served.
func (s *BandwidthServer) Accesses() int64 { return s.accesses }

// Utilization returns busy/elapsed in [0,1] over the window ending at now.
func (s *BandwidthServer) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	u := float64(s.busy) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}
