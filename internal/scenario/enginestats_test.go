package scenario

import "testing"

// TestEngineSectionNotDigested: every builtin reports the engine
// section, and neither tampering with it nor dropping it moves the
// digest — the pinned digests (TestBuiltinDigestsPinned) are sealed
// without it.
func TestEngineSectionNotDigested(t *testing.T) {
	for _, spec := range Builtin() {
		res, err := Run(small(spec), KeepSamples())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		eng := res.Engine
		if eng == nil || eng.Executed == 0 || eng.Spawned == 0 || eng.PeakHeap == 0 ||
			eng.SleepsInline+eng.SleepsParked == 0 {
			t.Fatalf("%s: engine section %+v, want every counter populated", spec.Name, eng)
		}
		sealed := res.Digest
		tampered := *eng
		tampered.Executed++
		tampered.SleepsInline, tampered.SleepsParked = tampered.SleepsParked, tampered.SleepsInline
		res.Engine = &tampered
		res.seal(res.Samples, true)
		if res.Digest != sealed {
			t.Fatalf("%s: engine section leaked into the digest", spec.Name)
		}
		res.Engine = nil
		res.seal(res.Samples, true)
		if res.Digest != sealed {
			t.Fatalf("%s: dropping the engine section moved the digest", spec.Name)
		}
	}
}

// TestEngineSectionWorkerIndependent: the section is a deterministic
// function of the point, whatever the sweep's worker count.
func TestEngineSectionWorkerIndependent(t *testing.T) {
	for _, name := range []string{"smoke-grid", "coll-smoke"} {
		sw, err := SweepByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sw = smallSweep(sw)
		serial, err := RunSweep(sw, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunSweep(sw, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, pr := range serial.Results {
			got := parallel.Results[i].Result
			if pr.Result == nil || got == nil || pr.Result.Engine == nil || got.Engine == nil {
				t.Fatalf("%s point %d: missing result or engine section", name, i)
			}
			if *pr.Result.Engine != *got.Engine {
				t.Fatalf("%s point %d: engine section %+v on 1 worker, %+v on 4", name, i, *pr.Result.Engine, *got.Engine)
			}
		}
	}
}
