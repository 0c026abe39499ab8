package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/ssd"
	"assasin/internal/telemetry/analyze"
)

// workload is one standalone kernel run recipe: the kernel, how its input
// splits across cores, where its output goes and how its input streams are
// made. Table II, Figs 5, 13, 16 and 21, the window ablation, the oracle
// soaks and assasin-sim all take their runs from this table, looked up by
// Kernel.Name().
type workload struct {
	kernel kernels.Kernel
	// rec is the per-core record alignment; 0 marks an unsplittable
	// stream, which runs whole on one core.
	rec int
	out firmware.OutKind
	// gen builds one input stream of about n bytes from seed.
	gen func(n int, seed int64) []byte
	// name and state are the row's Table II function and function state
	// (empty for the rows outside Table II); seed seeds its Table II and
	// soak inputs.
	name, state string
	seed        int64
}

// workloads lists the twelve Table II functions in the table's order, then
// RAID4 and Scan.
var workloads = []workload{
	{kernels.Stat{}, 4, firmware.OutDiscard, randData, "Statistics", "accumulators (regs)", 41},
	{kernels.RAID6{K: 4}, 4, firmware.OutToFlash, randData, "Erasure coding (RAID6)", "GF tables (scratchpad)", 42},
	{kernels.AES{}, 16, firmware.OutToFlash, randData, "Cryptography (AES-128)", "round keys + T-tables", 46},
	{kernels.Filter{
		TupleSize: filterTupleSize,
		Preds: []kernels.FieldPred{ // the Q6-like predicate of the motivating example
			{Offset: 16, Lo: 19940101, Hi: 19941231}, // shipdate window
			{Offset: 0, Lo: 0, Hi: 23},               // quantity < 24
		},
	}, filterTupleSize, firmware.OutToHost, lineitemTuples, "Filter", "flags/preds (regs)", 0},
	{kernels.Select{TupleSize: filterTupleSize, FieldOffsets: []int{0, 16}}, filterTupleSize, firmware.OutToHost,
		lineitemTuples, "Select", "none", 0},
	{kernels.PSF{NumFields: 16, Project: []int{0, 4, 10}}, 0, firmware.OutToHost, psfCSV,
		"Parse (PSF)", "state machine (code)", 47},
	{kernels.Dedup{}, 512, firmware.OutToHost, dedupData, "Deduplicate", "signature table (scratchpad)", 48},
	{kernels.LZDecompress{}, 0, firmware.OutToHost, lzStream, "Decompress (LZ)", "history window (scratchpad)", 21},
	{kernels.MLP{}, kernels.MLP{}.RecordSize(), firmware.OutToHost, words(kernels.MLP{}.RecordSize(), 256),
		"NN inference (MLP)", "weights (scratchpad)", 49},
	{kernels.Degree{}, kernels.EdgeSize, firmware.OutDiscard, words(kernels.EdgeSize, 4096),
		"Graph (degree count)", "vertex stats (scratchpad)", 50},
	{kernels.Replicate{}, 4, firmware.OutToFlash, randData, "Replicate", "flags (regs)", 51},
	{kernels.LinearTrain{}, kernels.LinearTrain{}.RecordSize(), firmware.OutDiscard, words(kernels.LinearTrain{}.RecordSize(), 64),
		"NN training (SGD)", "weights (scratchpad)", 52},
	{kernels.RAID4{K: 4}, 4, firmware.OutToFlash, randData, "", "", 53},
	{kernels.Scan{}, 16, firmware.OutDiscard, randData, "", "", 54},
}

// findWorkload returns the row whose kernel is named name.
func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].kernel.Name() == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(WorkloadNames(), ", "))
}

// mustWorkload is findWorkload for the rows the experiments name.
func mustWorkload(name string) *workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

// WorkloadNames lists the standalone workloads by kernel name, in table
// order: the values assasin-sim's -kernel accepts.
func WorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.kernel.Name()
	}
	return names
}

// inputs builds the row's input streams, bytes each, stream i seeded
// seed+i.
func (w *workload) inputs(bytes int, seed int64) [][]byte {
	ins := make([][]byte, w.kernel.Inputs())
	for i := range ins {
		ins[i] = w.gen(bytes, seed+int64(i))
	}
	return ins
}

// opts turns the row into one run on arch over inputs, split across cores
// at the row's record alignment. It is the one place the unsplittable-row
// rule lives: a row with rec 0 runs its whole stream on one core.
func (w *workload) opts(arch ssd.Arch, cores int, inputs [][]byte) runOpts {
	rec := w.rec
	if rec == 0 {
		rec, cores = len(inputs[0]), 1
	}
	return runOpts{arch: arch, cores: cores, kernel: w.kernel, inputs: inputs, recordSize: rec, outKind: w.out}
}

// streamBytes sizes one input stream of w for a run over total input
// bytes: the total split over the row's streams, except for AES, which
// runs about 65 simulated instructions per byte and is sized by AESKB.
func (c Config) streamBytes(w *workload, total int) int {
	if _, ok := w.kernel.(kernels.AES); ok {
		return int(c.AESKB * 1024)
	}
	return total / w.kernel.Inputs()
}

// StandaloneRun is one finished standalone offload: the simulator's result,
// the SSD it ran on and the run's record.
type StandaloneRun struct {
	Result *ssd.Result
	SSD    *ssd.SSD
	Run    analyze.Run
}

// throughput returns input bytes/second.
func (r *StandaloneRun) throughput() float64 { return r.Result.Throughput() }

// RunWorkload runs the workload named name (see WorkloadNames) once on a
// fresh SSD observed as cfg asks, with bytes per input stream and stream i
// seeded seed+i. Inputs the flash array cannot hold are an error.
func RunWorkload(cfg Config, name string, arch ssd.Arch, adjusted bool, cores, bytes int, seed int64) (*StandaloneRun, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if total := float64(bytes) * float64(w.kernel.Inputs()); total > flashUserBytes {
		return nil, fmt.Errorf("%s reads %d streams of %d bytes: %.0f bytes exceed the flash array's user capacity of %.0f bytes",
			name, w.kernel.Inputs(), bytes, total, flashUserBytes)
	}
	o := w.opts(arch, cores, w.inputs(bytes, seed))
	o.adjusted = adjusted
	return runStandalone(cfg, o)
}

func randData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	// Round to a 64-byte multiple so every kernel's record size divides it.
	return b[:len(b)&^63]
}

// filterTupleSize is the binary lineitem tuple size of the motivating
// example (quantity, price, discount, tax, shipdate + padding).
const filterTupleSize = 32

// lineitemTuples serializes a binary lineitem-like array: 32-byte tuples
// with quantity@0, price@4, discount@8, tax@12, shipdate@16. Its generator
// has a fixed seed.
func lineitemTuples(totalBytes int, _ int64) []byte {
	n := totalBytes / filterTupleSize
	data := make([]byte, n*filterTupleSize)
	rng := newSplitMix(42)
	for i := 0; i < n; i++ {
		t := data[i*filterTupleSize:]
		binary.LittleEndian.PutUint32(t[0:], uint32(1+rng.next()%50))
		binary.LittleEndian.PutUint32(t[4:], uint32(90000+rng.next()%100000))
		binary.LittleEndian.PutUint32(t[8:], uint32(rng.next()%11)*100)
		binary.LittleEndian.PutUint32(t[12:], uint32(rng.next()%9)*100)
		y := 1992 + rng.next()%7
		m := 1 + rng.next()%12
		d := 1 + rng.next()%28
		binary.LittleEndian.PutUint32(t[16:], uint32(y*10000+m*100+d))
		binary.LittleEndian.PutUint32(t[20:], uint32(i))
	}
	return data
}

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() int {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) & 0x7FFFFFFF)
}

// psfCSV builds parseable 16-field integer CSV of roughly n bytes.
func psfCSV(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for b.Len() < n {
		for f := 0; f < 16; f++ {
			if f > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%d", rng.Intn(100000))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// dedupData builds chunked data with a controlled duplicate ratio.
func dedupData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	const chunk = 512
	uniques := make([][]byte, 32)
	for i := range uniques {
		u := make([]byte, chunk)
		rng.Read(u)
		uniques[i] = u
	}
	out := make([]byte, 0, n)
	for len(out)+chunk <= n {
		out = append(out, uniques[rng.Intn(len(uniques))]...)
	}
	return out
}

// lzStream compresses about n bytes of compressible data.
func lzStream(n int, seed int64) []byte {
	return kernels.LZDecompress{}.Compress(kernels.CompressibleData(n, seed))
}

// words returns a generator of whole rec-byte records of little-endian
// 32-bit words below max: MLP features, SGD samples and graph edges.
func words(rec, max int) func(int, int64) []byte {
	return func(n int, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		n -= n % rec
		out := make([]byte, n)
		for i := 0; i+4 <= n; i += 4 {
			binary.LittleEndian.PutUint32(out[i:], uint32(rng.Intn(max)))
		}
		return out
	}
}
