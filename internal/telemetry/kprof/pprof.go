// pprof export: a hand-rolled encoder for the subset of pprof's
// profile.proto the guest profiler needs (the repo carries no third-party
// dependencies). Only two wire types appear — varint and length-delimited —
// and the output is gzip-compressed with a zeroed header so identical
// profiles encode to identical bytes.
//
// Field numbers follow github.com/google/pprof/proto/profile.proto:
//
//	Profile:  1 sample_type, 2 sample, 3 mapping, 4 location, 5 function,
//	          6 string_table, 9 time_nanos, 11 period_type, 12 period,
//	          14 default_sample_type
//	ValueType: 1 type, 2 unit            Sample: 1 location_id, 2 value
//	Mapping:  1 id, 2 memory_start, 3 memory_limit, 5 filename,
//	          7 has_functions
//	Location: 1 id, 2 mapping_id, 3 address, 4 line
//	Line:     1 function_id, 2 line
//	Function: 1 id, 2 name, 3 system_name, 4 filename, 5 start_line
package kprof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"assasin/internal/cpu"
)

type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

// intField emits a varint field, omitted when zero (proto3 default).
func (b *protoBuf) intField(field int, v int64) {
	if v != 0 {
		b.varint(uint64(field<<3 | 0))
		b.varint(uint64(v))
	}
}

func (b *protoBuf) bytesField(field int, p []byte) {
	b.varint(uint64(field<<3 | 2))
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *protoBuf) packedField(field int, vs []int64) {
	var tmp protoBuf
	for _, v := range vs {
		tmp.varint(uint64(v))
	}
	b.bytesField(field, tmp.Bytes())
}

// sampleColumns names the per-pc value columns, busy first after the
// instruction count; the busy column is the default sample type.
var sampleColumns = [...][2]string{
	{"instructions", "count"},
	{"busy", "picoseconds"},
	{cpu.ClassExecStall, "picoseconds"},
	{cpu.ClassStreamRefillWait, "picoseconds"},
	{cpu.ClassOutFullWait, "picoseconds"},
	{cpu.ClassCacheDRAMWait, "picoseconds"},
}

// Pprof encodes the profile as gzipped profile.proto bytes. Every sample
// is a two-frame stack — leaf "kernel: pc: disasm", parent the kernel
// name — so `go tool pprof -top` ranks pcs and `-cum` ranks kernels.
func (p *Profile) Pprof() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WritePprof writes the gzipped profile.proto encoding of the profile.
func (p *Profile) WritePprof(w io.Writer) error {
	var out protoBuf

	// String table: index 0 must be "". Strings are interned in first-use
	// order, which is deterministic because kernels and pcs are sorted.
	strIdx := map[string]int64{"": 0}
	strTab := []string{""}
	intern := func(s string) int64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := int64(len(strTab))
		strIdx[s] = i
		strTab = append(strTab, s)
		return i
	}

	for _, c := range sampleColumns {
		var vt protoBuf
		vt.intField(1, intern(c[0]))
		vt.intField(2, intern(c[1]))
		out.bytesField(1, vt.Bytes())
	}

	// One synthetic mapping covering the flat guest address space; pc
	// addresses are base + kernelIndex<<16 + pc.
	const mapBase = 0x1000
	funcID, locID := int64(0), int64(0)
	var locs, funcs, samples protoBuf
	for ki, k := range p.Kernels {
		funcID++
		kernelFn := funcID
		var fn protoBuf
		fn.intField(1, kernelFn)
		fn.intField(2, intern(k.Kernel))
		fn.intField(3, intern(k.Kernel))
		fn.intField(4, intern(k.Kernel+".kasm"))
		funcs.bytesField(5, fn.Bytes())

		locID++
		kernelLoc := locID
		var kl protoBuf
		kl.intField(1, kernelLoc)
		kl.intField(2, 1)
		kl.intField(3, mapBase+int64(ki)<<16)
		var kline protoBuf
		kline.intField(1, kernelFn)
		kl.bytesField(4, kline.Bytes())
		locs.bytesField(4, kl.Bytes())

		for _, b := range k.Blocks {
			for _, s := range b.PCs {
				funcID++
				var pf protoBuf
				pf.intField(1, funcID)
				name := intern(fmt.Sprintf("%s: %s", k.Kernel, s.Sym))
				pf.intField(2, name)
				pf.intField(3, name)
				pf.intField(4, intern(k.Kernel+".kasm"))
				pf.intField(5, int64(s.PC))
				funcs.bytesField(5, pf.Bytes())

				locID++
				var loc protoBuf
				loc.intField(1, locID)
				loc.intField(2, 1)
				loc.intField(3, mapBase+int64(ki)<<16+int64(s.PC))
				var line protoBuf
				line.intField(1, funcID)
				line.intField(2, int64(s.PC))
				loc.bytesField(4, line.Bytes())
				locs.bytesField(4, loc.Bytes())

				var smp protoBuf
				smp.packedField(1, []int64{locID, kernelLoc})
				smp.packedField(2, []int64{
					s.Insts, s.BusyPs, s.ExecStallPs,
					s.StreamWaitPs, s.OutFullPs, s.MemWaitPs,
				})
				samples.bytesField(2, smp.Bytes())
			}
		}
	}
	out.Write(samples.Bytes())

	var mp protoBuf
	mp.intField(1, 1)
	mp.intField(2, mapBase)
	mp.intField(3, mapBase+int64(len(p.Kernels)+1)<<16)
	mp.intField(5, intern("assasin-guest"))
	mp.intField(7, 1)
	out.bytesField(3, mp.Bytes())

	out.Write(locs.Bytes())
	out.Write(funcs.Bytes())
	for _, s := range strTab {
		out.bytesField(6, []byte(s))
	}
	// time_nanos stays 0: snapshots are deterministic artifacts of the
	// simulated run, not wall-clock events.
	var pt protoBuf
	pt.intField(1, intern("busy"))
	pt.intField(2, intern("picoseconds"))
	out.bytesField(11, pt.Bytes())
	out.intField(12, p.PeriodPs)
	out.intField(14, strIdx["busy"])

	// gzip with a zeroed header (no name, no mtime) for byte determinism.
	gz := gzip.NewWriter(w)
	if _, err := gz.Write(out.Bytes()); err != nil {
		return err
	}
	return gz.Close()
}
