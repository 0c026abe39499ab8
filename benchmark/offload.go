package benchmark

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"assasin/internal/asm"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/memhier"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
)

// Input sizes in KiB at scale 1, chosen so one timed repeat of each
// workload takes about two seconds on a 2-vCPU host. Every kernel gets the
// same size except AES, which retires about 65 simulated instructions per
// byte and gets about an eighth (the experiments' defaults use the same
// ratio).
const (
	streamKB  = 512
	streamAES = 80
	cachedKB  = 256
	cachedAES = 32
	// shortRounds passes over the 36 (kernel, architecture) pairs give
	// 1,008 offloads of shortKB each, so op_ms_p99 has ten beyond it.
	shortKB     = 16
	shortAES    = 2
	shortRounds = 28
	shortCores  = 4
	mixCores    = 8
)

var streamOffload = Workload{
	Name: "stream-offload",
	Why: "Table II mix on AssasinSb, AssasinSb$ and AssasinSp: the paper's stream path, " +
		"where the cpu engine and memhier stream buffers take most host time",
	prepare: func(seed int64, scale float64) []op {
		return mixOps(seed, scale, streamKB, streamAES, []ssd.Arch{ssd.AssasinSb, ssd.AssasinSbCache, ssd.AssasinSp})
	},
}

var cachedOffload = Workload{
	Name: "cached-offload",
	Why: "Table II mix on Baseline, Prefetch and UDP: every load goes through the memhier " +
		"caches, prefetcher and DRAM, which the stream path bypasses",
	prepare: func(seed int64, scale float64) []op {
		return mixOps(seed, scale, cachedKB, cachedAES, []ssd.Arch{ssd.Baseline, ssd.Prefetch, ssd.UDP})
	},
}

var shortOffloads = Workload{
	Name: "short-offloads",
	Why: "about 1,000 16 KiB offloads on all six architectures, each on a fresh SSD: " +
		"set-up and allocation dominate, as in -quick, the tests and small queries",
	prepare: prepareShort,
}

// mixEntry is one Table II function with its generated inputs.
type mixEntry struct {
	kernel kernels.Kernel
	inputs [][]byte
	// rec aligns the per-core split; 0 marks an unsplittable stream that
	// runs on one core.
	rec int
	out firmware.OutKind
}

// table2Mix builds the twelve functions of internal/experiments/table2.go
// with inputs regenerated from seed: kb KiB each, aesKB for AES.
func table2Mix(seed int64, kb, aesKB int) []*mixEntry {
	n, aesN := kb<<10, aesKB<<10
	src := newSources(seed)
	mlp := kernels.MLP{}
	train := kernels.LinearTrain{}
	lz := kernels.LZDecompress{}
	return []*mixEntry{
		{kernels.Stat{}, [][]byte{randBytes(src.next(), n)}, 4, firmware.OutDiscard},
		{kernels.RAID6{K: 4}, [][]byte{randBytes(src.next(), n/4), randBytes(src.next(), n/4),
			randBytes(src.next(), n/4), randBytes(src.next(), n/4)}, 4, firmware.OutToFlash},
		{kernels.AES{}, [][]byte{randBytes(src.next(), aesN)}, 16, firmware.OutToFlash},
		{filterKernel(), [][]byte{lineitemTuples(src.next(), n)}, 32, firmware.OutToHost},
		{kernels.Select{TupleSize: 32, FieldOffsets: []int{0, 16}}, [][]byte{lineitemTuples(src.next(), n)}, 32, firmware.OutToHost},
		{kernels.PSF{NumFields: 16, Project: []int{0, 4, 10}}, [][]byte{psfCSV(src.next(), n)}, 0, firmware.OutToHost},
		{kernels.Dedup{}, [][]byte{dedupData(src.next(), n)}, 512, firmware.OutToHost},
		{lz, [][]byte{lz.Compress(kernels.CompressibleData(n, src.next().Int63()))}, 0, firmware.OutToHost},
		{mlp, [][]byte{records(src.next(), n, mlp.RecordSize(), 256)}, mlp.RecordSize(), firmware.OutToHost},
		{kernels.Degree{}, [][]byte{records(src.next(), n, kernels.EdgeSize, 4096)}, kernels.EdgeSize, firmware.OutDiscard},
		{kernels.Replicate{}, [][]byte{randBytes(src.next(), n)}, 4, firmware.OutToFlash},
		{train, [][]byte{records(src.next(), n, train.RecordSize(), 64)}, train.RecordSize(), firmware.OutDiscard},
	}
}

func mixOps(seed int64, scale float64, kb, aesKB int, archs []ssd.Arch) []op {
	mix := table2Mix(seed, scaled(kb, scale), scaled(aesKB, scale))
	var ops []op
	for _, m := range mix {
		for _, a := range archs {
			ops = append(ops, &offloadOp{label: m.kernel.Name() + "/" + a.String(), arch: a, cores: mixCores, m: m})
		}
	}
	return ops
}

// prepareShort builds the short offloads. Scale shrinks their number, not
// their size, so even a small run keeps the workload's character.
func prepareShort(seed int64, scale float64) []op {
	n, aesN := shortKB<<10, shortAES<<10
	rounds := int(shortRounds * scale)
	if rounds < 1 {
		rounds = 1
	}
	src := newSources(seed)
	var ops []op
	for r := 0; r < rounds; r++ {
		mix := []*mixEntry{
			{kernels.Stat{}, [][]byte{randBytes(src.next(), n)}, 4, firmware.OutDiscard},
			{kernels.Scan{}, [][]byte{randBytes(src.next(), n)}, 16, firmware.OutDiscard},
			{kernels.AES{}, [][]byte{randBytes(src.next(), aesN)}, 16, firmware.OutToFlash},
			{kernels.Replicate{}, [][]byte{randBytes(src.next(), n)}, 4, firmware.OutToFlash},
			{kernels.RAID6{K: 4}, [][]byte{randBytes(src.next(), n/4), randBytes(src.next(), n/4),
				randBytes(src.next(), n/4), randBytes(src.next(), n/4)}, 4, firmware.OutToFlash},
			{filterKernel(), [][]byte{lineitemTuples(src.next(), n)}, 32, firmware.OutToHost},
		}
		for _, m := range mix {
			for _, a := range ssd.AllArchs() {
				label := fmt.Sprintf("r%02d/%s/%s", r, m.kernel.Name(), a)
				ops = append(ops, &offloadOp{label: label, arch: a, cores: shortCores, m: m})
			}
		}
	}
	return ops
}

// scaled returns kb×scale, at least 1 KiB.
func scaled(kb int, scale float64) int {
	if n := int(float64(kb) * scale); n > 1 {
		return n
	}
	return 1
}

// offloadOp runs one kernel over its inputs on a fresh SSD.
type offloadOp struct {
	label string
	arch  ssd.Arch
	cores int
	m     *mixEntry
}

func (o *offloadOp) run(e *env) opResult {
	r := opResult{name: o.label, attempted: 1}
	if err := o.exec(e, &r); err != nil {
		r.err = fmt.Errorf("%s: %w", o.label, err)
		r.failed = 1
	}
	return r
}

func (o *offloadOp) exec(e *env, r *opResult) error {
	k := o.m.kernel
	cores, rec := o.cores, o.m.rec
	if rec == 0 {
		cores, rec = 1, len(o.m.inputs[0])
	}
	var sink *telemetry.Sink
	if e.tel {
		sink = telemetry.NewSink()
		sink.MaxEvents = -1
	}

	a0 := e.allocated()
	t0 := time.Now()
	s := ssd.New(ssd.Options{Arch: o.arch, Cores: cores, Telemetry: sink})
	e.span("ssd.new", t0)
	t := time.Now()
	var lpas [][]int
	var lengths []int64
	for _, in := range o.m.inputs {
		l, err := s.InstallBytes(in)
		if err != nil {
			return err
		}
		lpas = append(lpas, l)
		lengths = append(lengths, int64(len(in)))
		e.counts["ftl/install_pages"] += float64(len(l))
	}
	e.span("ftl.install", t)
	t = time.Now()
	tasks, err := s.BuildTasks(ssd.KernelRun{
		Kernel: k, Inputs: lpas, InputBytes: lengths, RecordSize: rec,
		Cores: cores, OutKind: o.m.out, Collect: k.Outputs() > 0,
	})
	e.span("kernels.build", t)
	r.setup = time.Since(t0)
	if err != nil {
		return err
	}
	t = time.Now()
	res, err := s.RunOffload(tasks, 0)
	r.run = e.span("ssd.run_offload", t)
	e.allocBytes += e.allocated() - a0
	if err != nil {
		return err
	}

	if sink != nil {
		e.harvest(s, sink)
	}
	e.counts["ssd/offloads"]++
	e.addStats(res.CoreStats)
	t = time.Now()
	defer e.span("kernels.verify", t)
	r.insts = sumStats(res.CoreStats).Instructions
	r.pages = float64(res.InputBytes) / float64(pageSize)
	r.reqs = 1
	r.digest = offloadDigest(res)
	return o.m.verify(ssd.PartitionBytes(lengths[0], cores, rec), o.arch, res)
}

// verify checks an offload's results against the kernel's reference: the
// collected output streams, or the register results of the kernels that
// return state instead of a stream.
func (m *mixEntry) verify(parts []ssd.ByteRange, arch ssd.Arch, res *ssd.Result) error {
	if len(res.FinalRegs) != len(parts) {
		return fmt.Errorf("%d task results for %d partitions", len(res.FinalRegs), len(parts))
	}
	in := m.inputs[0]
	for i, p := range parts {
		regs := res.FinalRegs[i]
		var got, want uint32
		switch k := m.kernel.(type) {
		case kernels.Stat:
			got, want = regs[asm.S0], k.RefSum(in[p.Start:p.End])
		case kernels.Degree:
			got, want = regs[asm.S3], uint32(p.Len()/kernels.EdgeSize)
		case kernels.LinearTrain:
			got, want = regs[asm.S3], uint32(p.Len()/int64(k.RecordSize()))
		case kernels.Scan:
			// The stream lowering counts consumed bytes; the software one
			// leaves its read pointer at the end of the partition.
			want = uint32(p.Len())
			if ssd.StyleFor(arch) == kernels.StyleStream {
				got = uint32(res.CoreStats[i].StreamInBytes)
			} else {
				got = regs[asm.S10] - memhier.StreamInViewBase
			}
		}
		if got != want {
			return fmt.Errorf("core %d result %d, reference %d", i, got, want)
		}
	}
	for slot := 0; slot < m.kernel.Outputs(); slot++ {
		var got, want []byte
		for _, outs := range res.Outputs {
			got = append(got, outs[slot]...)
		}
		for _, p := range parts {
			var pin [][]byte
			for _, x := range m.inputs {
				pin = append(pin, x[p.Start:p.End])
			}
			ref, err := m.kernel.Reference(pin)
			if err != nil {
				return err
			}
			want = append(want, ref[slot]...)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("output %d differs from the reference (%d vs %d bytes)", slot, len(got), len(want))
		}
	}
	return nil
}

// offloadDigest hashes an offload's simulated result: duration, input
// bytes, the summed core statistics, every output stream and the final
// registers.
func offloadDigest(res *ssd.Result) string {
	h := sha256.New()
	st := sumStats(res.CoreStats)
	fmt.Fprintf(h, "duration=%d input=%d insts=%d class=%d busy=%d stall=%d load=%d store=%d in=%d out=%d retries=%d\n",
		res.Duration, res.InputBytes, st.Instructions, st.ByClass, st.BusyTime, st.StallTime,
		st.LoadBytes, st.StoreBytes, st.StreamInBytes, st.StreamOutBytes, st.Retries)
	for _, outs := range res.Outputs {
		for _, o := range outs {
			fmt.Fprintf(h, "out %d\n", len(o))
			h.Write(o)
		}
	}
	for _, regs := range res.FinalRegs {
		binary.Write(h, binary.LittleEndian, regs) // hash writes cannot fail
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sources hands out independent generators derived from one seed, one per
// input, so adding an input never shifts another's data.
type sources struct {
	seed int64
	n    int64
}

func newSources(seed int64) *sources { return &sources{seed: seed} }

func (s *sources) next() *rand.Rand {
	s.n++
	return rand.New(rand.NewSource(s.seed*1_000_003 + s.n))
}

// randBytes returns n random bytes rounded down to a 64-byte multiple, so
// every kernel's record size divides it.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n&^63)
	rng.Read(b)
	return b
}

// filterKernel is the Q6-like predicate of the paper's motivating example.
func filterKernel() kernels.Filter {
	return kernels.Filter{
		TupleSize: 32,
		Preds: []kernels.FieldPred{
			{Offset: 16, Lo: 19940101, Hi: 19941231}, // shipdate window
			{Offset: 0, Lo: 0, Hi: 23},               // quantity < 24
		},
	}
}

// lineitemTuples builds 32-byte lineitem-like tuples: quantity@0,
// price@4, discount@8, tax@12, shipdate@16, row id@20.
func lineitemTuples(rng *rand.Rand, n int) []byte {
	data := make([]byte, n/32*32)
	for i := 0; i < len(data)/32; i++ {
		t := data[i*32:]
		binary.LittleEndian.PutUint32(t[0:], uint32(1+rng.Intn(50)))
		binary.LittleEndian.PutUint32(t[4:], uint32(90000+rng.Intn(100000)))
		binary.LittleEndian.PutUint32(t[8:], uint32(rng.Intn(11)*100))
		binary.LittleEndian.PutUint32(t[12:], uint32(rng.Intn(9)*100))
		date := (1992+rng.Intn(7))*10000 + (1+rng.Intn(12))*100 + 1 + rng.Intn(28)
		binary.LittleEndian.PutUint32(t[16:], uint32(date))
		binary.LittleEndian.PutUint32(t[20:], uint32(i))
	}
	return data
}

// psfCSV builds parseable 16-field integer CSV of about n bytes.
func psfCSV(rng *rand.Rand, n int) []byte {
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

// dedupData builds 512-byte chunks drawn from 32 distinct ones.
func dedupData(rng *rand.Rand, n int) []byte {
	const chunk = 512
	uniques := make([][]byte, 32)
	for i := range uniques {
		uniques[i] = randBytes(rng, chunk)
	}
	out := make([]byte, 0, n)
	for len(out)+chunk <= n {
		out = append(out, uniques[rng.Intn(len(uniques))]...)
	}
	return out
}

// records builds n/rec records of little-endian words below limit (edge
// endpoints, feature values and labels).
func records(rng *rand.Rand, n, rec, limit int) []byte {
	out := make([]byte, n-n%rec)
	for i := 0; i+4 <= len(out); i += 4 {
		binary.LittleEndian.PutUint32(out[i:], uint32(rng.Intn(limit)))
	}
	return out
}
