package memo_test

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tsxhpc/internal/apps"
	"tsxhpc/internal/clomp"
	"tsxhpc/internal/memo"
	"tsxhpc/internal/memo/memotest"
	"tsxhpc/internal/netapps"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/rmstm"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/stamp"
)

// countsResult has the shape of cmd/verify's seedOutcome: the one memoized
// result type with a map field.
type countsResult struct {
	Lines  string
	Bad    bool
	Txns   uint64
	Counts map[string]int
}

// resultTypes are the exported memoized result types plus countsResult.
// experiments and cmd/verify round-trip their unexported ones themselves.
var resultTypes = []any{
	stamp.Result{}, stamp.ProbedResult{}, rmstm.Result{}, clomp.Result{},
	apps.Result{}, netapps.Result{}, netapps.ScaleResult{}, countsResult{},
}

func openStore(t testing.TB, dir string) *memo.Store {
	t.Helper()
	s, err := memo.OpenAt(dir, "testfp")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestResultTypesRoundTrip saves every memoized result type with every
// field non-zero and loads it back unchanged.
func TestResultTypesRoundTrip(t *testing.T) {
	memotest.RoundTrip(t, resultTypes...)
}

// TestEmptyDecodesNil pins that zero-length slices and maps come back nil.
func TestEmptyDecodesNil(t *testing.T) {
	s := openStore(t, t.TempDir())
	in := stamp.ProbedResult{Probes: probe.Snapshot{
		Counters: []probe.CounterVal{},
		Hists:    []probe.HistVal{{Name: "h", Buckets: []uint64{}}},
	}}
	if err := s.Save("probed", in); err != nil {
		t.Fatal(err)
	}
	var out stamp.ProbedResult
	memotest.Fill(&out)
	if st := s.Load("probed", &out); st != runner.StoreHit {
		t.Fatalf("Load = %v, want hit", st)
	}
	want := stamp.ProbedResult{Probes: probe.Snapshot{Hists: []probe.HistVal{{Name: "h"}}}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}

	if err := s.Save("counts", countsResult{Counts: map[string]int{}}); err != nil {
		t.Fatal(err)
	}
	var counts countsResult
	memotest.Fill(&counts)
	if st := s.Load("counts", &counts); st != runner.StoreHit || counts.Counts != nil || counts.Lines != "" {
		t.Fatalf("Load = %v, %+v; want hit with nil Counts", st, counts)
	}
}

// TestSnapshotRoundTrip: probe snapshots ride inside memoized cell results.
func TestSnapshotRoundTrip(t *testing.T) {
	set := probe.NewSet()
	x := uint64(7)
	set.Bind("x", &x)
	set.Hist("h").Observe(9)
	snap := set.Snapshot()
	s := openStore(t, t.TempDir())
	if err := s.Save("snap", snap); err != nil {
		t.Fatal(err)
	}
	var got probe.Snapshot
	if st := s.Load("snap", &got); st != runner.StoreHit || !reflect.DeepEqual(got, snap) {
		t.Fatalf("Load = %v:\n got %+v\nwant %+v", st, got, snap)
	}
}

// TestMapEntriesDeterministic: map entries are written in sorted key order,
// so equal values always produce equal entry bytes.
func TestMapEntriesDeterministic(t *testing.T) {
	v := countsResult{Counts: map[string]int{}}
	for _, k := range strings.Fields("q w e r t y u i o p a s d f g h j k l") {
		v.Counts[k] = len(k)
	}
	first, err := memo.SealEntry("counts", v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := memo.SealEntry("counts", v)
		if err != nil || !bytes.Equal(again, first) {
			t.Fatalf("entry bytes differ between encodings of one value (%v)", err)
		}
	}
}

// TestUnsupportedKindsRefused: a value the codec cannot represent exactly
// is a Save error, never a silent drop.
func TestUnsupportedKindsRefused(t *testing.T) {
	type recursive struct{ Kids []recursive }
	cases := map[string]any{
		"pointer":          struct{ P *int }{},
		"interface":        struct{ I any }{},
		"func":             struct{ F func() }{},
		"chan":             struct{ C chan int }{},
		"complex":          struct{ C complex128 }{},
		"uintptr":          uintptr(1),
		"unexported field": struct{ n int }{},
		"float map key":    map[float64]int{},
		"zero-size elem":   []struct{}{},
		"recursive":        recursive{},
		"nil":              nil,
	}
	s := openStore(t, t.TempDir())
	for name, v := range cases {
		if err := s.Save(runner.Key(name), v); err == nil {
			t.Errorf("%s: Save succeeded, want error", name)
		}
	}
	if got := s.Stats().SaveErrors; got != uint64(len(cases)) {
		t.Fatalf("SaveErrors = %d, want %d", got, len(cases))
	}
}

// FuzzLoad feeds arbitrary entry images to Load for each result type,
// either raw or, with wrap set, as a payload wrapped in a valid header so
// the bytes reach the payload decoder. Load must never panic, must not
// allocate more than a small multiple of the image size, and may return a
// hit only for the exact image Save writes for that key and the decoded
// value.
func FuzzLoad(f *testing.F) {
	s := openStore(f, f.TempDir())
	key := func(i int) runner.Key { return runner.Key("fuzz/" + reflect.TypeOf(resultTypes[i]).String()) }
	for i, sample := range resultTypes {
		for _, filled := range []bool{false, true} {
			v := reflect.New(reflect.TypeOf(sample))
			if filled {
				memotest.Fill(v.Interface())
			}
			img, err := memo.SealEntry(key(i), v.Elem().Interface())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), false, img)
			f.Add(uint8(i), true, memo.PayloadOf(img))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, wrap bool, img []byte) {
		i := int(which) % len(resultTypes)
		k := key(i)
		if wrap {
			img = memo.WrapPayload(k, resultTypes[i], img)
		}
		if err := os.WriteFile(memo.EntryPath(s, k), img, 0o644); err != nil {
			t.Fatal(err)
		}
		out := reflect.New(reflect.TypeOf(resultTypes[i]))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := s.Load(k, out.Interface())
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(img)+64<<10); grew > limit {
			t.Fatalf("Load of a %d-byte image allocated %d bytes (limit %d)", len(img), grew, limit)
		}
		switch st {
		case runner.StoreHit:
			again, err := memo.SealEntry(k, out.Elem().Interface())
			if err != nil || !bytes.Equal(again, img) {
				t.Fatalf("hit on an image Save would not write (%v):\n got %x\nsave %x", err, img, again)
			}
		case runner.StoreInvalid:
		default:
			t.Fatalf("Load = %v", st)
		}
	})
}
