package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// captureFile is the committed cmd/reproduce output every seed-0 section is
// byte-compared against; benchFile holds the committed per-section simulated
// event counts of a cold catalog-order run.
const (
	captureFile = "reproduce_output.txt"
	benchFile   = "BENCH_reproduce.json"
)

// expected is what one section must produce: its rendered body (as a
// SHA-256) and, when the section was simulated cold in catalog order, its
// simulated event count.
type expected struct {
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
}

func digest(body string) string {
	h := sha256.Sum256([]byte(body))
	return hex.EncodeToString(h[:])
}

var sectionHeader = regexp.MustCompile(`(?m)^--- (.+) ---$`)

// splitCapture splits cmd/reproduce output into section bodies keyed by
// section id. Each section is printed as "\n--- <id> ---\n<body>", and the
// run ends with a "\nreproduced ..." footer line, so a body runs from the end
// of its header line to the blank line before the next header or the footer.
func splitCapture(out string) (map[string]string, error) {
	idx := sectionHeader.FindAllStringSubmatchIndex(out, -1)
	if len(idx) == 0 {
		return nil, errors.New("no section headers")
	}
	end := strings.LastIndex(out, "\nreproduced ")
	if end < idx[len(idx)-1][1] {
		return nil, errors.New("no footer after the last section")
	}
	bodies := make(map[string]string, len(idx))
	for i, m := range idx {
		id := out[m[2]:m[3]]
		stop := end
		if i+1 < len(idx) {
			stop = idx[i+1][0] - 1 // the blank line before the next header
		}
		start := m[1] + 1 // past the header's newline
		if start > stop || out[stop] != '\n' {
			return nil, fmt.Errorf("section %q is not followed by a blank line", id)
		}
		if _, dup := bodies[id]; dup {
			return nil, fmt.Errorf("section %q appears twice", id)
		}
		bodies[id] = out[start:stop]
	}
	return bodies, nil
}

// committedExpectations reads the seed-0 expectations from the checkout's
// committed files: each body from the capture and each cold event count from
// the bench record's per-experiment rows.
func committedExpectations(root string) (map[string]expected, error) {
	out, err := os.ReadFile(filepath.Join(root, captureFile))
	if err != nil {
		return nil, err
	}
	bodies, err := splitCapture(string(out))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", captureFile, err)
	}
	raw, err := os.ReadFile(filepath.Join(root, benchFile))
	if err != nil {
		return nil, err
	}
	var rec struct {
		Experiments []struct {
			ID        string `json:"id"`
			SimEvents uint64 `json:"sim_events"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", benchFile, err)
	}
	events := make(map[string]uint64, len(rec.Experiments))
	for _, e := range rec.Experiments {
		events[e.ID] = e.SimEvents
	}
	exp := make(map[string]expected, len(catalog))
	for _, s := range catalog {
		body, ok := bodies[s.id]
		if !ok {
			return nil, fmt.Errorf("%s has no section %q", captureFile, s.id)
		}
		ev, ok := events[s.id]
		if !ok {
			return nil, fmt.Errorf("%s has no event count for %q", benchFile, s.id)
		}
		exp[s.id] = expected{Digest: digest(body), Events: ev}
	}
	return exp, nil
}

// expectations holds what each section must produce under one seed. Seed 0
// is the committed catalog (capture plus committed event counts); a nonzero
// seed runs under deterministic fault injection, which has no committed
// reference, so its first cold result in this checkout becomes the reference
// every later run of the same build must repeat exactly.
type expectations struct {
	path string // "" for the committed (read-only) set
	m    map[string]expected
}

// loadExpectations returns the expectations for seed; for a nonzero seed,
// the references adopted so far for the model fingerprint fp.
func loadExpectations(root, stateDir string, seed int64, fp string) (*expectations, error) {
	if seed == 0 {
		m, err := committedExpectations(root)
		return &expectations{m: m}, err
	}
	e := &expectations{path: filepath.Join(stateDir, fmt.Sprintf("expect-seed%d-%s.json", seed, fp)), m: map[string]expected{}}
	raw, err := os.ReadFile(e.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return e, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(raw, &e.m); err != nil {
		return nil, fmt.Errorf("%s: %w", e.path, err)
	}
	return e, nil
}

// check compares one section result with its expectation and returns a
// description of each mismatch. cold reports whether the section ran in
// catalog order with nothing cached, so its event count is comparable; a
// cache-served section must simulate nothing. A section with no reference
// yet (nonzero seed, first run) is adopted as the reference.
func (e *expectations) check(r sectionResult, cold bool) []string {
	if r.Err != "" {
		return []string{fmt.Sprintf("%s: failed: %s", r.ID, r.Err)}
	}
	want, ok := e.m[r.ID]
	if !ok && cold && e.path != "" {
		e.m[r.ID] = expected{Digest: r.Digest, Events: r.Events}
		return nil
	}
	var bad []string
	switch {
	case !ok:
		// A cache-served section under a new seed has nothing to compare
		// against until a cold run records one; the warm fill records all.
		return []string{fmt.Sprintf("%s: no reference output", r.ID)}
	case r.Digest != want.Digest:
		bad = append(bad, fmt.Sprintf("%s: rendered output differs from the reference", r.ID))
	}
	switch {
	case cold && r.Events != want.Events:
		bad = append(bad, fmt.Sprintf("%s: %d simulated events, reference %d", r.ID, r.Events, want.Events))
	case !cold && r.Events != 0:
		bad = append(bad, fmt.Sprintf("%s: %d simulated events on a cache-served pass", r.ID, r.Events))
	}
	return bad
}

// save persists adopted references (nonzero seeds only), atomically.
func (e *expectations) save() error {
	if e.path == "" {
		return nil
	}
	raw, err := json.MarshalIndent(e.m, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(e.path, raw)
}

// total is the reference event count of the given sections.
func (e *expectations) total(secs []section) uint64 {
	var n uint64
	for _, s := range secs {
		n += e.m[s.id].Events
	}
	return n
}

func writeAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
