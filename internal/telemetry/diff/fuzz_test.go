package diff

import "testing"

// FuzzDecode checks the format detection behind LoadFile on arbitrary
// bytes: it must never panic, every accepted input must fill exactly one
// of the three payloads (a report fills Metrics with its counters), and comparing an accepted side with itself must
// render without panicking.
func FuzzDecode(f *testing.F) {
	accepted := []string{
		`{"counters":{"flash/senses":4},"gauges":{"class/busy_ps":{"value":7,"max":7}}}`,
		`{"run":"Stat/Baseline","interval_ps":10,"times_ps":[10,20],"series":[{"key":"class/busy","kind":"rate","values":[3,4]}],"phases":[{"class":"busy","start_ps":0,"end_ps":20}]}`,
		`{"experiment":"fig13","telemetry":{"counters":{"ssd/offloads":1}}}`,
		`{"label":"Stat/AssasinSb","duration_ps":100,"classes":[{"class":"busy","ps":60,"frac":0.6}],"counters":{"x":2}}`,
		`[{"label":"Stat/AssasinSb","classes":[{"class":"mem_wait","ps":5,"frac":1}]}]`,
		`{"label":"p","kernels":[{"kernel":"stat/stream","blocks":[{"start":0,"end":3,"insts":9,"busy_ps":9,"pcs":[]}]}]}`,
	}
	for _, s := range accepted {
		if _, err := decode([]byte(s)); err != nil {
			f.Fatalf("seed %s: %v", s, err)
		}
		f.Add([]byte(s))
	}
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[null,null]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decode(b)
		if err != nil {
			return
		}
		filled := 0
		for _, set := range []bool{d.Metrics != nil, d.Timeline != nil, d.Profile != nil} {
			if set {
				filled++
			}
		}
		if filled != 1 {
			t.Fatalf("decode(%q) filled %d payloads, want 1", b, filled)
		}
		_ = Compare(d, d).Format()
	})
}
