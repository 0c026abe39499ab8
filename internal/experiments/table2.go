package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/runpool"
	"assasin/internal/ssd"
)

// Table2Row is one computational-storage function from the workload study
// (Table II), measured on Baseline vs AssasinSb.
type Table2Row struct {
	Function  string
	StateDesc string
	Baseline  float64
	AssasinSb float64
	Cores     int
}

// Table2 runs the full implemented slice of the paper's workload survey —
// every Table II function built in this repository — as offloads on the
// Baseline and AssasinSb configurations. It is the executable version of
// the paper's claim that computational-storage functions are feasible as
// stream computing with bounded random-access state.
func Table2(cfg Config) ([]Table2Row, error) {
	kb := int(cfg.KernelMB * (1 << 20) / 2)
	mlp := kernels.MLP{}
	train := kernels.LinearTrain{}
	lz := kernels.LZDecompress{}
	lzStream := lz.Compress(kernels.CompressibleData(kb, 21))

	type entry struct {
		name   string
		state  string
		kernel kernels.Kernel
		inputs [][]byte
		rec    int
		out    firmware.OutKind
		cores  int // 0 = cfg.Cores
	}
	entries := []entry{
		{"Statistics", "accumulators (regs)", kernels.Stat{}, [][]byte{randData(kb, 41)}, 4, firmware.OutDiscard, 0},
		{"Erasure coding (RAID6)", "GF tables (scratchpad)", kernels.RAID6{K: 4},
			[][]byte{randData(kb/4, 42), randData(kb/4, 43), randData(kb/4, 44), randData(kb/4, 45)}, 4, firmware.OutToFlash, 0},
		{"Cryptography (AES-128)", "round keys + T-tables", kernels.AES{}, [][]byte{randData(int(cfg.AESKB*1024), 46)}, 16, firmware.OutToFlash, 0},
		{"Filter", "flags/preds (regs)", filterKernel(), [][]byte{lineitemTuples(kb)}, filterTupleSize, firmware.OutToHost, 0},
		{"Select", "none", kernels.Select{TupleSize: 32, FieldOffsets: []int{0, 16}}, [][]byte{lineitemTuples(kb)}, 32, firmware.OutToHost, 0},
		{"Parse (PSF)", "state machine (code)", kernels.PSF{NumFields: 16, Project: []int{0, 4, 10}},
			[][]byte{psfCSV(kb, 47)}, 0, firmware.OutToHost, 1},
		{"Deduplicate", "signature table (scratchpad)", kernels.Dedup{}, [][]byte{dedupData(kb, 48)}, 512, firmware.OutToHost, 0},
		{"Decompress (LZ)", "history window (scratchpad)", lz, [][]byte{lzStream}, 0, firmware.OutToHost, 1},
		{"NN inference (MLP)", "weights (scratchpad)", mlp, [][]byte{mlpRecords(mlp, kb, 49)}, mlp.RecordSize(), firmware.OutToHost, 0},
		{"Graph (degree count)", "vertex stats (scratchpad)", kernels.Degree{}, [][]byte{edgeList(kb, 50)}, kernels.EdgeSize, firmware.OutDiscard, 0},
		{"Replicate", "flags (regs)", kernels.Replicate{}, [][]byte{randData(kb, 51)}, 4, firmware.OutToFlash, 0},
		{"NN training (SGD)", "weights (scratchpad)", train, [][]byte{trainRecords(train, kb, 52)}, train.RecordSize(), firmware.OutDiscard, 0},
	}

	// One job per (function, configuration); entry inputs were generated
	// above and are shared read-only.
	archs := []ssd.Arch{ssd.Baseline, ssd.AssasinSb}
	tputs, err := runpool.Map(cfg.workers(), len(entries)*len(archs), func(j int) (float64, error) {
		e, arch := entries[j/len(archs)], archs[j%len(archs)]
		cores := e.cores
		if cores == 0 {
			cores = cfg.Cores
		}
		rec := e.rec
		if rec == 0 {
			rec = len(e.inputs[0]) // unsplittable stream: one core
			cores = 1
		}
		o := cfg.instrument(runOpts{
			arch:       arch,
			cores:      cores,
			kernel:     e.kernel,
			inputs:     e.inputs,
			recordSize: rec,
			outKind:    e.out,
			collect:    cfg.Verify && e.out != firmware.OutDiscard,
		})
		r, err := runStandalone(o)
		if err != nil {
			return 0, fmt.Errorf("%s on %v: %w", e.name, arch, err)
		}
		if cfg.Verify {
			if err := verifyOutputs(o, r); err != nil {
				return 0, err
			}
		}
		return r.throughput(), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(entries))
	for i, e := range entries {
		cores := e.cores
		if cores == 0 {
			cores = cfg.Cores
		}
		if e.rec == 0 {
			cores = 1
		}
		rows[i] = Table2Row{
			Function: e.name, StateDesc: e.state, Cores: cores,
			Baseline: tputs[i*len(archs)], AssasinSb: tputs[i*len(archs)+1],
		}
	}
	return rows, nil
}

// FormatTable2 renders the workload study.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II (executable) — stream-computing implementations of storage functions (GB/s)\n")
	fmt.Fprintf(&b, "%-24s%-30s%7s%10s%11s%9s\n", "Function", "Function state", "Cores", "Baseline", "AssasinSb", "Speedup")
	for _, r := range rows {
		sp := 0.0
		if r.Baseline > 0 {
			sp = r.AssasinSb / r.Baseline
		}
		fmt.Fprintf(&b, "%-24s%-30s%7d%10s%11s%8.2fx\n", r.Function, r.StateDesc, r.Cores, gbps(r.Baseline), gbps(r.AssasinSb), sp)
	}
	return b.String()
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

// mlpRecords builds feature records with small non-negative values.
func mlpRecords(k kernels.MLP, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	rec := k.RecordSize()
	n -= n % rec
	out := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(out[i:], uint32(rng.Intn(256)))
	}
	return out
}

// edgeList builds a random edge list over the default vertex range.
func edgeList(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	n -= n % kernels.EdgeSize
	out := make([]byte, n)
	for i := 0; i+kernels.EdgeSize <= n; i += kernels.EdgeSize {
		binary.LittleEndian.PutUint32(out[i:], uint32(rng.Intn(4096)))
		binary.LittleEndian.PutUint32(out[i+4:], uint32(rng.Intn(4096)))
	}
	return out
}

// trainRecords builds labelled training records with small values.
func trainRecords(k kernels.LinearTrain, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	rec := k.RecordSize()
	n -= n % rec
	out := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(out[i:], uint32(rng.Intn(64)))
	}
	return out
}
