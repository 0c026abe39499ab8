package ssd

import (
	"fmt"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/memhier"
)

// BuildParamsFor assembles kernel build parameters for this SSD.
func (s *SSD) BuildParamsFor() kernels.BuildParams {
	return kernels.BuildParams{
		Style:     StyleFor(s.Opt.Arch),
		PageSize:  s.Flash.PageSize,
		StateBase: StateBaseFor(s.Opt.Arch),
	}
}

// ByteRange is a half-open [Start, End) byte interval of a dataset.
type ByteRange struct{ Start, End int64 }

// Len returns the range length.
func (r ByteRange) Len() int64 { return r.End - r.Start }

// PartitionBytes splits total bytes into up to n record-aligned contiguous
// ranges (the storage engine's task decomposition of Section V-D). Ranges
// are balanced to within one record; fewer than n ranges are returned when
// there are fewer records than cores.
func PartitionBytes(total int64, n int, recordSize int) []ByteRange {
	if recordSize <= 0 {
		recordSize = 1
	}
	records := total / int64(recordSize)
	if records == 0 || n <= 0 {
		if total == 0 {
			return nil
		}
		return []ByteRange{{0, total}}
	}
	if int64(n) > records {
		n = int(records)
	}
	var out []ByteRange
	var prev int64
	for i := 1; i <= n; i++ {
		endRec := records * int64(i) / int64(n)
		end := endRec * int64(recordSize)
		if i == n {
			end = total // tail bytes (partial record, if any) go to the last core
		}
		out = append(out, ByteRange{prev, end})
		prev = end
	}
	return out
}

// SpecForRange builds the StreamSpec delivering dataset bytes [r.Start,
// r.End) given the dataset's backing pages.
func (s *SSD) SpecForRange(lpas []int, r ByteRange) firmware.StreamSpec {
	ps := int64(s.Flash.PageSize)
	first := r.Start / ps
	last := (r.End + ps - 1) / ps
	if last > int64(len(lpas)) {
		last = int64(len(lpas))
	}
	return firmware.StreamSpec{
		LPAs:   lpas[first:last],
		Offset: r.Start - first*ps,
		Length: r.Len(),
	}
}

// KernelRun bundles everything needed to offload one kernel over datasets.
type KernelRun struct {
	Kernel kernels.Kernel
	// Inputs[i] is the page list of input dataset i (all the same byte
	// length for multi-input kernels).
	Inputs [][]int
	// InputBytes[i] is dataset i's byte length.
	InputBytes []int64
	// RecordSize aligns the per-core partitioning.
	RecordSize int
	// Cores is how many compute engines to use (0 = all).
	Cores int
	// OutKind selects the output destination for every output stream.
	OutKind firmware.OutKind
	// Collect retains output bytes for verification.
	Collect bool
}

// BuildTasks constructs per-core TaskSpecs for a kernel run. On an SSD
// built with Options.ChannelLocal it partitions by physical channel instead
// of by byte range (the Fig. 7 fixed channel-compute alternative), which
// requires RecordSize == PageSize. The tasks' Program and Scratch come from
// the process-wide program memo and are shared with every other SSD that
// runs the same kernel value with the same BuildParams: callers must not
// modify them.
func (s *SSD) BuildTasks(run KernelRun) ([]TaskSpec, error) {
	k := run.Kernel
	if len(run.Inputs) != k.Inputs() {
		return nil, fmt.Errorf("ssd: kernel %s wants %d inputs, got %d", k.Name(), k.Inputs(), len(run.Inputs))
	}
	cores := run.Cores
	if cores <= 0 || cores > len(s.Cores) {
		cores = len(s.Cores)
	}
	params := s.BuildParamsFor()
	prog, state, err := programs.build(k, params)
	if err != nil {
		return nil, err
	}

	// Partition dataset 0 and apply the same record split to all inputs
	// (multi-input kernels have equal-length streams).
	var parts [][]firmware.StreamSpec // per core, per input
	if s.Opt.ChannelLocal {
		parts, err = s.channelLocalParts(run, cores)
		if err != nil {
			return nil, err
		}
	} else {
		ranges := PartitionBytes(run.InputBytes[0], cores, run.RecordSize)
		for _, r := range ranges {
			var ins []firmware.StreamSpec
			for i := range run.Inputs {
				ins = append(ins, s.SpecForRange(run.Inputs[i], r))
			}
			parts = append(parts, ins)
		}
	}

	var tasks []TaskSpec
	for _, ins := range parts {
		lengths := make([]int64, len(ins))
		var maxLen int64
		for i, in := range ins {
			lengths[i] = in.Length
			if in.Length > maxLen {
				maxLen = in.Length
			}
		}
		if maxLen >= memhier.StreamViewStride {
			return nil, fmt.Errorf("ssd: per-core stream of %d bytes exceeds the %d view stride", maxLen, memhier.StreamViewStride)
		}
		var outs []firmware.OutTarget
		for o := 0; o < k.Outputs(); o++ {
			t := firmware.OutTarget{Kind: run.OutKind, Collect: run.Collect}
			if run.OutKind == firmware.OutToFlash {
				pages := int(maxLen/int64(s.Flash.PageSize)) + 8
				t.StartLPA = s.ReserveLPAs(pages)
			}
			outs = append(outs, t)
		}
		tasks = append(tasks, TaskSpec{
			Program:   prog,
			Inputs:    ins,
			Outputs:   outs,
			Regs:      kernels.Args(lengths),
			Scratch:   state,
			StateBase: params.StateBase,
		})
	}
	return tasks, nil
}

// channelLocalParts assigns each core the pages of its own channel — the
// application-specific per-channel compute architecture of Fig. 7, which
// cannot rebalance when the FTL's layout is skewed.
func (s *SSD) channelLocalParts(run KernelRun, cores int) ([][]firmware.StreamSpec, error) {
	if len(run.Inputs) != 1 {
		return nil, fmt.Errorf("ssd: channel-local split supports single-input kernels")
	}
	ps := int64(s.Flash.PageSize)
	if int64(run.RecordSize) != ps {
		return nil, fmt.Errorf("ssd: channel-local split needs page-sized records")
	}
	channels := s.Flash.Channels
	if cores < channels {
		return nil, fmt.Errorf("ssd: channel-local split needs a core per channel (%d < %d)", cores, channels)
	}
	byChannel := make([][]int, channels)
	for _, lpa := range run.Inputs[0] {
		ppa, ok := s.FTL.Lookup(lpa)
		if !ok {
			return nil, fmt.Errorf("ssd: unmapped lpa %d", lpa)
		}
		byChannel[ppa.Channel] = append(byChannel[ppa.Channel], lpa)
	}
	var parts [][]firmware.StreamSpec
	for c := 0; c < channels; c++ {
		parts = append(parts, []firmware.StreamSpec{{
			LPAs:   byChannel[c],
			Offset: 0,
			Length: int64(len(byChannel[c])) * ps,
		}})
	}
	return parts, nil
}

// RunKernel is the one-call path: build tasks, execute, and return the
// result.
func (s *SSD) RunKernel(run KernelRun) (*Result, error) {
	tasks, err := s.BuildTasks(run)
	if err != nil {
		return nil, err
	}
	if s.reqLabel == "" {
		s.SetRequestLabel(run.Kernel.Name())
	}
	return s.RunOffload(tasks, 0)
}
