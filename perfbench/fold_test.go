package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// frame is one function in a synthetic profile.
type frame struct{ name, file string }

// pb is a minimal protobuf writer for building profile.proto test inputs.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// buildProfile encodes a gzipped CPU profile whose samples have the given
// stacks (each location a list of inlined frames, innermost first; stacks
// leaf first) and CPU nanoseconds.
func buildProfile(t *testing.T, stacks [][][]frame, ns []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p = p.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	fnID := map[frame]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			var l pb
			locID++
			l = l.varint(1, locID)
			for _, f := range loc {
				id, ok := fnID[f]
				if !ok {
					id = uint64(len(fnID) + 1)
					fnID[f] = id
					p = p.bytes(5, pb(nil).varint(1, id).varint(2, intern(f.name)).varint(4, intern(f.file)))
				}
				l = l.bytes(4, pb(nil).varint(1, id).varint(2, 10))
			}
			p = p.bytes(4, l)
			locs = append(locs, locID)
		}
		p = p.bytes(2, pb(nil).bytes(1, packed(locs...)).bytes(2, packed(1, uint64(ns[i]))))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func leafFirst(frames ...frame) [][]frame {
	out := make([][]frame, len(frames))
	for i, f := range frames {
		out[i] = []frame{f}
	}
	return out
}

const internal = "tsxhpc/internal/"

func TestFoldProfile(t *testing.T) {
	stacks := [][][]frame{
		// The coroutine switch is the scheduler, whatever runtime leaf.
		leafFirst(frame{"runtime.casgstatus", "proc.go"}, frame{"runtime.coroswitch_m", "coro.go"}, frame{internal + "sim.(*Machine).resumeCtx", "sim.go"}),
		// sim splits by file and by cache entry point.
		leafFirst(frame{internal + "sim.(*Cache).access", "cache.go"}),
		leafFirst(frame{internal + "sim.(*Context).Load", "sim.go"}, frame{internal + "stamp.run", "stamp.go"}),
		leafFirst(frame{internal + "sim.(*Machine).siftDown", "sim.go"}),
		// Transparent runtime and library leaves go to their caller.
		leafFirst(frame{"runtime.memmove", "memmove.s"}, frame{"encoding/gob.(*Decoder).Decode", "decoder.go"}, frame{internal + "memo.(*Store).Load", "memo.go"}),
		leafFirst(frame{"sort.Slice", "slice.go"}, frame{internal + "harness.(*Table).Render", "harness.go"}),
		// Allocation belongs to the Go runtime layer.
		leafFirst(frame{"runtime.mallocgc", "malloc.go"}, frame{internal + "htm.(*Runtime).Begin", "htm.go"}),
		// An inlined frame is judged before the function it was inlined into.
		{{{internal + "htm.(*Txn).Store", "htm.go"}, {internal + "tm.htmTx.Store", "tm.go"}}},
		// Tracing bookkeeping and frames no rule claims are unattributed.
		leafFirst(frame{internal + "probe.(*Counter).Inc", "probe.go"}, frame{internal + "stm.(*TL2).Run", "tl2.go"}),
		leafFirst(frame{"runtime.schedule", "proc.go"}, frame{"runtime.mcall", "asm.s"}),
		leafFirst(frame{"tsxhpc/perfbench.runSections", "worker.go"}, frame{"main.main", "main.go"}),
	}
	ns := []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	got, err := foldProfile(buildProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sched": 1 + 8, "cache": 2 + 4, "memo": 16, "runner": 32, "gc": 64, "htm": 128, "unattributed": 256 + 512 + 1024}
	if len(got) != len(want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("%s = %d, want %d (fold %v)", l, got[l], v, got)
		}
	}
}

// Every fold layer is reachable from some function, and anything the rules
// do not know falls through.
func TestEveryLayerHasABucket(t *testing.T) {
	examples := map[string]frame{
		"sched":        {internal + "sim.(*Machine).popMin", "sim.go"},
		"cache":        {internal + "sim.(*presenceTab).get", "presence.go"},
		"htm":          {internal + "htm.(*Txn).Commit", "htm.go"},
		"stm":          {internal + "stm.(*TL2).Run", "tl2.go"},
		"tm":           {internal + "core.(*Region).Do", "lockmod.go"},
		"ssync":        {internal + "ssync.(*Mutex).Lock", "ssync.go"},
		"net":          {internal + "netstack.(*Endpoint).Send", "netstack.go"},
		"workload":     {internal + "clomp.Run", "clomp.go"},
		"runner":       {internal + "runner.Submit[go.shape.struct { tsxhpc/internal/stamp.Result }].func1", "runner.go"},
		"memo":         {internal + "runopts.(*Options).Setup", "runopts.go"},
		"gc":           {"runtime.gcBgMarkWorker", "mgc.go"},
		"unattributed": {internal + "probe.GlobalSnapshot", "probe.go"},
	}
	for _, l := range layers {
		f, ok := examples[l]
		if !ok {
			t.Errorf("no example for layer %q", l)
			continue
		}
		if got := classify(f.name, f.file); got != l {
			t.Errorf("classify(%s) = %q, want %q", f.name, got, l)
		}
	}
	for _, fn := range []string{"runtime.memmove", "fmt.Sprintf", "tsxhpc/perfbench.main", "main.main", "tsxhpc/internal/faults.Chaos", "weird"} {
		if got := classify(fn, "x.go"); got != "" {
			t.Errorf("classify(%s) = %q, want transparent", fn, got)
		}
	}
}

func TestSplitFunc(t *testing.T) {
	cases := []struct{ fn, pkg, name string }{
		{internal + "sim.(*Context).Load", internal + "sim", "(*Context).Load"},
		{internal + "runner.Submit[go.shape.struct { a/b.C }].func1", internal + "runner", "Submit[go.shape.struct { a/b.C }].func1"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"noPackage", "", "noPackage"},
	}
	for _, c := range cases {
		if pkg, name := splitFunc(c.fn); pkg != c.pkg || name != c.name {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c.fn, pkg, name, c.pkg, c.name)
		}
	}
}

// TestFoldRealProfile folds a profile written by runtime/pprof, so the
// decoder keeps up with the format the worker actually reads.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for l, v := range got {
		if l != "unattributed" && l != "gc" {
			t.Errorf("a loop in the test binary folded into %q", l)
		}
		total += v
	}
	if total == 0 {
		t.Skipf("no samples (x=%d)", x)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("want an error for a non-gzip profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f}) // length-delimited field overrunning the input
	zw.Close()
	if _, err := foldProfile(gz.Bytes()); err == nil {
		t.Error("want an error for a truncated profile")
	}
}
