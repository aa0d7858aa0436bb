package memo

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tsxhpc/internal/faults"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/tm"
)

func openTest(t *testing.T) *Store {
	t.Helper()
	s, err := OpenAt(t.TempDir(), "testfp")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFile returns the single on-disk entry path for key.
func entryFile(t *testing.T, s *Store, key runner.Key) string {
	t.Helper()
	p := s.path(key)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry for %q not on disk: %v", key, err)
	}
	return p
}

// TestRoundTrip checks that a realistic result struct (nested named types,
// fixed-size array) survives Save/Load bit-exactly.
func TestRoundTrip(t *testing.T) {
	s := openTest(t)
	in := stamp.Result{
		Workload: "bayes", Mode: tm.TSX, Threads: 4,
		Cycles: 123456789, AbortRate: 12.5, Fallbacks: 3, Events: 99,
	}
	in.AbortCauses[1] = 42
	if err := s.Save("stamp/bayes/tsx/4T", in); err != nil {
		t.Fatal(err)
	}
	var out stamp.Result
	if st := s.Load("stamp/bayes/tsx/4T", &out); st != runner.StoreHit {
		t.Fatalf("Load = %v, want hit", st)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
	if st := s.Load("stamp/bayes/tsx/8T", &out); st != runner.StoreMiss {
		t.Fatalf("unknown key Load = %v, want miss", st)
	}
}

// TestCorruptionTolerance is the robustness contract: a truncated or
// bit-flipped entry — at any offset — reads as invalid, never as a wrong
// value, and rewriting it restores hits.
func TestCorruptionTolerance(t *testing.T) {
	type result struct{ N, M uint64 }
	s := openTest(t)
	key := runner.Key("cell/1")
	want := result{N: 7, M: 9}
	if err := s.Save(key, want); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s, key)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip every byte position in turn; no single-bit corruption may
	// produce a hit with a wrong value.
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		var got result
		switch st := s.Load(key, &got); st {
		case runner.StoreHit:
			if got != want {
				t.Fatalf("byte %d flip: hit with wrong value %+v", i, got)
			}
		case runner.StoreInvalid:
		default:
			t.Fatalf("byte %d flip: Load = %v", i, st)
		}
	}

	// Truncations at every length must be invalid (never a crash or hit).
	for _, n := range []int{0, 1, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		var got result
		if st := s.Load(key, &got); st != runner.StoreInvalid {
			t.Fatalf("truncation to %d bytes: Load = %v, want invalid", n, st)
		}
	}

	// Rewriting repairs the entry.
	if err := s.Save(key, want); err != nil {
		t.Fatal(err)
	}
	var got result
	if st := s.Load(key, &got); st != runner.StoreHit || got != want {
		t.Fatalf("after rewrite: %v, %+v", st, got)
	}
}

// TestKeyVerification: an entry renamed onto another key's path (the
// filename-hash collision stand-in) is rejected by the stored-key check.
func TestKeyVerification(t *testing.T) {
	s := openTest(t)
	if err := s.Save("cell/a", 111); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(entryFile(t, s, "cell/a"), s.path("cell/b")); err != nil {
		t.Fatal(err)
	}
	var got int
	if st := s.Load("cell/b", &got); st != runner.StoreInvalid {
		t.Fatalf("key-swapped entry Load = %v, want invalid", st)
	}
}

// TestTypeSignatureGuard: an entry written as one type must not decode into
// a reshaped type, even one a name-matching decoder would happily accept.
func TestTypeSignatureGuard(t *testing.T) {
	type v1 struct {
		Cycles uint64
		Rate   float64
	}
	type v2 struct {
		Cycles uint64
		Rate   float32 // retyped field
	}
	s := openTest(t)
	if err := s.Save("cell", v1{Cycles: 10, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	var out v2
	if st := s.Load("cell", &out); st != runner.StoreInvalid {
		t.Fatalf("reshaped type Load = %v, want invalid", st)
	}
}

// TestFingerprintInvalidation is the staleness-impossible-by-construction
// contract: mutating any model input — a cost-table field, the machine
// topology, the chaos seed or knobs, the code — changes the fingerprint, so
// old entries are simply never looked up.
func TestFingerprintInvalidation(t *testing.T) {
	base := sim.DefaultConfig()
	ref := fingerprint(base, "code0")

	costs := base
	costs.Costs.Transfer++
	topo := base
	topo.Cores = 8
	budget := base
	budget.MaxCycles = 1
	chaos1, chaos2 := base, base
	chaos1.Faults = faults.Chaos(1)
	chaos2.Faults = faults.Chaos(2)
	knob := base
	cfg := faults.Chaos(1)
	cfg.StormLines = 64
	knob.Faults = cfg

	mutants := map[string]string{
		"costs field":  fingerprint(costs, "code0"),
		"topology":     fingerprint(topo, "code0"),
		"cycle budget": fingerprint(budget, "code0"),
		"chaos seed 1": fingerprint(chaos1, "code0"),
		"chaos seed 2": fingerprint(chaos2, "code0"),
		"chaos knob":   fingerprint(knob, "code0"),
		"code edit":    fingerprint(base, "code1"),
	}
	seen := map[string]string{ref: "base"}
	for name, fp := range mutants {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s fingerprint collides with %s (%s)", name, prev, fp)
		}
		seen[fp] = name
	}
	if fingerprint(base, "code0") != ref {
		t.Fatal("fingerprint is not deterministic")
	}
}

// TestModelFingerprint: the live fingerprint is computable in this
// environment (source tree present) and stable within a process.
func TestModelFingerprint(t *testing.T) {
	a, err := ModelFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelFingerprint()
	if err != nil || a != b || a == "" {
		t.Fatalf("ModelFingerprint unstable: %q vs %q (%v)", a, b, err)
	}
}

// TestChaosSeedStoreIsolation runs the full stack: two stores opened for
// the fingerprints of two chaos seeds never share entries.
func TestChaosSeedStoreIsolation(t *testing.T) {
	dir := t.TempDir()
	open := func(seed int64) *Store {
		sim.SetRunDefaults(sim.RunDefaults{Faults: faults.Chaos(seed), StallCycles: 200_000_000})
		defer sim.SetRunDefaults(sim.RunDefaults{})
		fp, err := ModelFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenAt(dir, fp)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := open(1), open(2)
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Fatal("chaos seeds 1 and 2 share a fingerprint")
	}
	if err := s1.Save("cell", 42); err != nil {
		t.Fatal(err)
	}
	var got int
	if st := s2.Load("cell", &got); st != runner.StoreMiss {
		t.Fatalf("seed-2 store sees seed-1 entry: %v", st)
	}
}

// TestEngineIntegrationConcurrent exercises the real runner+memo pipeline
// under host concurrency (run with -race in CI): two engines share one
// store directory while many goroutines submit overlapping keys; every
// result must be correct, and a third engine must then serve everything
// from disk without executing a single job.
func TestEngineIntegrationConcurrent(t *testing.T) {
	dir := t.TempDir()
	newStore := func() *Store {
		s, err := OpenAt(dir, "fp")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	type result struct{ V int }
	const keys = 40
	var executions atomic.Int64
	runEngine := func(e *runner.Engine) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < keys; i++ {
					i := i
					key := runner.Key(fmt.Sprintf("cell/%d", i))
					v, err := runner.Do(e, key, func() (result, error) {
						executions.Add(1)
						return result{V: i * i}, nil
					})
					if err != nil || v.V != i*i {
						t.Errorf("cell %d = %+v, %v", i, v, err)
					}
				}
			}()
		}
		wg.Wait()
	}
	e1, e2 := runner.New(4), runner.New(4)
	e1.SetStore(newStore())
	e2.SetStore(newStore())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); runEngine(e1) }()
	go func() { defer wg.Done(); runEngine(e2) }()
	wg.Wait()
	// Concurrent engines may race to compute the same key before either
	// saved it, but never more than once per engine.
	if n := executions.Load(); n < keys || n > 2*keys {
		t.Fatalf("executions = %d, want between %d and %d", n, keys, 2*keys)
	}
	executions.Store(0)
	e3 := runner.New(4)
	e3.SetStore(newStore())
	runEngine(e3)
	if n := executions.Load(); n != 0 {
		t.Fatalf("warm engine executed %d jobs, want 0", n)
	}
	if st := e3.Stats(); st.CacheHits != keys || st.Executed != 0 {
		t.Fatalf("warm engine stats = %+v, want %d hits", st, keys)
	}
}

// TestEntryGolden pins the on-disk entry format. Changing the entry layout
// or the payload codec requires bumping schemaVersion (old entries must then
// read as invalid, not be misdecoded) and regenerating this image. Reshaping
// stamp.Result changes the signature section alone and needs no bump: the
// signature check already refuses old entries.
func TestEntryGolden(t *testing.T) {
	in := stamp.Result{
		Workload: "bayes", Mode: tm.TSX, Threads: 4,
		Cycles: 123456789, AbortRate: 12.5, Fallbacks: 3, Events: 99,
	}
	in.AbortCauses[1] = 42
	const golden = "5453584d454d4f02" + // magic, schema 2
		"00000012" + "7374616d702f62617965732f7473782f3454" + // key
		"000000af" + // signature length, then the signature
		"7374616d702e526573756c747b576f726b6c6f616420737472696e6728737472" +
		"696e67293b4d6f646520746d2e4d6f646528696e74293b5468726561647320696e" +
		"7428696e74293b4379636c65732075696e7436342875696e743634293b41626f72" +
		"745261746520666c6f6174363428666c6f61743634293b41626f72744361757365" +
		"73205b375d75696e7436343b46616c6c6261636b732075696e7436343b4576656e" +
		"74732075696e7436343b7d" +
		"0000001d" + "41ecb3f6" + // payload length, CRC32
		"056261796573" + // Workload
		"06" + "08" + "959aef3a" + // Mode (zigzag), Threads (zigzag), Cycles
		"4029000000000000" + // AbortRate
		"002a0000000000" + // AbortCauses
		"03" + "63" // Fallbacks, Events
	got, err := sealEntry("stamp/bayes/tsx/4T", in)
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != golden {
		t.Fatalf("entry image changed:\n got %s\nwant %s", h, golden)
	}
}

// schema1Entry is the entry the gob-based schema 1 wrote for the
// stamp.Result of TestEntryGolden.
const schema1Entry = "" +
	"5453584d454d4f01000000127374616d702f62617965732f7473782f34540000" +
	"01ad8d5972c336ff8303010108656e76656c6f706501ff840001030106536368" +
	"656d61010400010454797065010c0001075061796c6f6164010a000000fe0173" +
	"ff84010201ffaf7374616d702e526573756c747b576f726b6c6f616420737472" +
	"696e6728737472696e67293b4d6f646520746d2e4d6f646528696e74293b5468" +
	"726561647320696e7428696e74293b4379636c65732075696e7436342875696e" +
	"743634293b41626f72745261746520666c6f6174363428666c6f61743634293b" +
	"41626f7274436175736573205b375d75696e7436343b46616c6c6261636b7320" +
	"75696e7436343b4576656e74732075696e7436343b7d01ffb9787f0301010652" +
	"6573756c7401ff800001080108576f726b6c6f6164010c0001044d6f64650104" +
	"0001075468726561647301040001064379636c6573010600010941626f727452" +
	"617465010800010b41626f727443617573657301ff8200010946616c6c626163" +
	"6b7301060001064576656e7473010600000019ff81010101095b375d75696e74" +
	"363401ff82000106010e000025ff80010562617965730106010801fc075bcd15" +
	"01fe29400107002a0000000000010301630000"

// TestForeignEntriesRecomputed: a schema-1 entry, an entry of the current
// layout stamped with another schema, and arbitrary bytes all read as
// invalid, and the engine recomputes and rewrites them.
func TestForeignEntriesRecomputed(t *testing.T) {
	const key = runner.Key("stamp/bayes/tsx/4T")
	want := stamp.Result{Workload: "bayes", Threads: 4}
	current, err := sealEntry(key, want)
	if err != nil {
		t.Fatal(err)
	}
	otherSchema := append([]byte(nil), current...)
	otherSchema[len(magic)-1] = schemaVersion + 1
	schema1, err := hex.DecodeString(schema1Entry)
	if err != nil {
		t.Fatal(err)
	}
	foreign := map[string][]byte{
		"schema 1":     schema1,
		"other schema": otherSchema,
		"not an entry": []byte("#!/bin/sh\necho hello\n"),
		"empty":        nil,
	}
	for name, img := range foreign {
		s := openTest(t)
		if err := os.WriteFile(s.path(key), img, 0o644); err != nil {
			t.Fatal(err)
		}
		var out stamp.Result
		if st := s.Load(key, &out); st != runner.StoreInvalid {
			t.Fatalf("%s: Load = %v, want invalid", name, st)
		}
		e := runner.New(1)
		e.SetStore(s)
		got, err := runner.Do(e, key, func() (stamp.Result, error) { return want, nil })
		if err != nil || got != want || e.Stats().Executed != 1 {
			t.Fatalf("%s: engine returned %+v, %v after %d executions", name, got, err, e.Stats().Executed)
		}
		if rewritten, _ := os.ReadFile(s.path(key)); !bytes.Equal(rewritten, current) {
			t.Fatalf("%s: entry not rewritten in the current format", name)
		}
	}
}

// TestNonCanonicalPayloadInvalid: a payload behind a valid header decodes
// only if it is exactly what the encoder writes for some value.
func TestNonCanonicalPayloadInvalid(t *testing.T) {
	type small struct {
		B   bool
		I8  int8
		U   uint16
		F32 float32
		S   string
		Xs  []uint64
		M   map[string]int
	}
	want := small{B: true, I8: -3, U: 300, F32: 1.5, S: "ab", Xs: []uint64{7}, M: map[string]int{"a": 1, "b": 2}}
	parts := []string{"01", "05", "ac02", "3fc00000", "026162", "0107", "02016102016204"}
	payload := func(i int, part string) []byte {
		p := append([]string(nil), parts...)
		if i >= 0 {
			p[i] = part
		}
		b, err := hex.DecodeString(strings.Join(p, ""))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	s := openTest(t)
	load := func(p []byte) (small, runner.LoadStatus) {
		if err := os.WriteFile(s.path("k"), wrapPayload("k", small{}, p), 0o644); err != nil {
			t.Fatal(err)
		}
		var out small
		return out, s.Load("k", &out)
	}
	valid := payload(-1, "")
	if got, st := load(valid); st != runner.StoreHit || !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical payload: Load = %v, %+v", st, got)
	}
	bad := map[string][]byte{
		"bool byte 2":        payload(0, "02"),
		"int8 out of range":  payload(1, "9003"),
		"uint16 overflow":    payload(2, "f0a204"),
		"overlong varint":    payload(2, "ac8200"),
		"signalling NaN":     payload(3, "7f800001"),
		"string past end":    payload(4, "096162"),
		"huge slice length":  payload(5, "ffffffff0f07"),
		"map keys unordered": payload(6, "02016204016102"),
		"map key repeated":   payload(6, "02016102016104"),
		"trailing byte":      append(valid, 0),
		"truncated":          valid[:len(valid)-1],
		"empty":              nil,
	}
	for name, p := range bad {
		if _, st := load(p); st != runner.StoreInvalid {
			t.Errorf("%s: Load = %v, want invalid", name, st)
		}
	}
}
