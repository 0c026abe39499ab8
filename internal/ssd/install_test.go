package ssd

import (
	"bytes"
	"testing"
)

// TestInstallBytesCopiesOnce checks InstallBytes takes its own copy of the
// caller's bytes: changing them afterwards leaves every installed page, the
// zero-padded short last page included, as installed.
func TestInstallBytesCopiesOnce(t *testing.T) {
	s := New(Options{Arch: AssasinSb, Cores: 1})
	ps := s.Flash.PageSize
	data := makeWords(3*ps+100, 7)
	want := bytes.Clone(data)
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xFF
	}
	for i, lpa := range lpas {
		got, _, err := s.FTL.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, ps)
		copy(page, want[i*ps:])
		if !bytes.Equal(got, page) {
			t.Fatalf("lpa %d changed with the caller's bytes", lpa)
		}
	}
}

// TestInstallBytesRejectsWhatDoesNotFit checks data larger than the
// logical pages left installs nothing: the error leaves the next LPA and
// the mapping as they were, and a dataset that fits still installs there.
func TestInstallBytesRejectsWhatDoesNotFit(t *testing.T) {
	s := New(Options{Arch: AssasinSb, Cores: 1})
	ps := s.Flash.PageSize
	s.ReserveLPAs(s.FTL.UserPages() - 2)
	next := s.nextDataLPA
	if _, err := s.InstallBytes(make([]byte, 2*ps+1)); err == nil {
		t.Fatal("3 pages installed with 2 logical pages left")
	}
	if s.nextDataLPA != next {
		t.Fatalf("failed install moved the next LPA from %d to %d", next, s.nextDataLPA)
	}
	if _, ok := s.FTL.Lookup(next); ok {
		t.Fatalf("failed install mapped lpa %d", next)
	}
	lpas, err := s.InstallBytes(bytes.Repeat([]byte{9}, 2*ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(lpas) != 2 || lpas[0] != next {
		t.Fatalf("install after the failure got lpas %v, want 2 from %d", lpas, next)
	}
	if got, _, err := s.FTL.Read(0, next+1); err != nil || got[0] != 9 {
		t.Fatalf("lpa %d reads %v, %v", next+1, got[:1], err)
	}
}
