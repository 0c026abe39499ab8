// Skew: demonstrate why ASSASIN pools its compute engines behind a
// crossbar instead of pinning one engine per flash channel (Fig. 7 vs
// Fig. 6). When the FTL's data layout is skewed — here, everything forced
// onto channel 0 — the channel-local design is reduced to a single engine,
// while the crossbar keeps every engine eligible to consume the hot
// channel's stream.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"assasin/internal/firmware"
	"assasin/internal/ftl"
	"assasin/internal/kernels"
	"assasin/internal/ssd"
)

func main() {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(3)).Read(data)

	fmt.Println("moderate-intensity scan under flash layout skew (GB/s)")
	fmt.Printf("%-8s%12s%16s%8s\n", "skew", "crossbar", "channel-local", "ratio")
	for _, skew := range []float64{0, 0.5, 1.0} {
		xbar := run(data, skew, false)
		local := run(data, skew, true)
		fmt.Printf("%-8.2f%12.2f%16.2f%7.2fx\n", skew, xbar/1e9, local/1e9, xbar/local)
	}
	fmt.Println("\nThe crossbar architecture needs no FTL cooperation: the same")
	fmt.Println("striped-or-skewed layouts work, which is what keeps ASSASIN")
	fmt.Println("general-purpose (Section V-A).")
}

func run(data []byte, skew float64, channelLocal bool) float64 {
	s := ssd.New(ssd.Options{
		Arch:         ssd.AssasinSb,
		ChannelLocal: channelLocal,
		Layout:       ftl.SkewedPolicy{Skew: skew},
	})
	lpas, err := s.InstallBytes(data)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.RunKernel(ssd.KernelRun{
		Kernel:     kernels.Scan{Unroll: 2}, // ~2 cycles/byte: compute-limited per core
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: s.Flash.PageSize,
		OutKind:    firmware.OutDiscard,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Throughput()
}
