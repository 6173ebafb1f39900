package pointerlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dangsan/internal/vmem"
)

// tornSpill builds a tiered fixture with several cold segments on disk and
// returns the parsed segment layout: byte ranges and per-segment location
// sets, in file order.
type spillSeg struct {
	off, end int
	locs     []uint64
}

func parseSpill(t *testing.T, blob []byte) []spillSeg {
	t.Helper()
	var segs []spillSeg
	off := 0
	for off < len(blob) && binary.LittleEndian.Uint32(blob[off:]) != 0 { // zero magic: the preallocated remainder
		locs, n, err := decodeSegment(blob[off:], nil)
		if err != nil {
			t.Fatalf("fixture spill file does not parse at %d: %v", off, err)
		}
		segs = append(segs, spillSeg{off: off, end: off + n, locs: locs})
		off += n
	}
	if len(segs) < 2 {
		t.Fatalf("fixture produced %d segments; the test needs an intact prefix AND a torn tail", len(segs))
	}
	return segs
}

// TestColdCrashRecoveryTornFrame is the crash-recovery hardening test for
// the cold tier: a spill file truncated mid-frame (a crash mid-append) or
// exactly at the checksum boundary (header cut where the checksum field
// begins) must fail CLOSED on both recovery paths —
//
//   - offline: a restarted logger's ReadSegments returns exactly the
//     intact prefix and not one entry from the torn frame;
//   - online: free-time invalidation skips the unreadable segment,
//     increments ColdReadErrors, and never invalidates (or fabricates)
//     a torn-frame location.
func TestColdCrashRecoveryTornFrame(t *testing.T) {
	cuts := []struct {
		name string
		// cut returns the truncation offset for the final segment.
		cut func(s spillSeg) int
	}{
		// Mid-frame: header intact, payload cut in half.
		{"mid-frame", func(s spillSeg) int {
			return s.off + segHeaderBytes + (s.end-s.off-segHeaderBytes)/2
		}},
		// Checksum boundary: the header is cut exactly where the checksum
		// field starts (offset 12) — count and payload length parse, the
		// integrity word does not exist.
		{"checksum-boundary", func(s spillSeg) int {
			return s.off + 12
		}},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			const nLocs = 2000
			cfg := tieredConfig(t)
			lg, as, meta, _, locs := fillTiered(t, cfg, nLocs)
			defer lg.Close()
			cs := lg.ColdLogStats()
			if cs.Path == "" {
				t.Fatal("fixture never spilled")
			}
			blob, err := os.ReadFile(cs.Path)
			if err != nil {
				t.Fatal(err)
			}
			segs := parseSpill(t, blob)
			last := segs[len(segs)-1]
			cut := tc.cut(last)
			torn := make(map[uint64]bool, len(last.locs))
			for _, l := range last.locs {
				torn[l] = true
			}
			intact := 0
			for _, s := range segs[:len(segs)-1] {
				intact += len(s.locs)
			}

			// Offline: restart-style recovery over the truncated file.
			recPath := filepath.Join(t.TempDir(), "crash.seg")
			if err := os.WriteFile(recPath, blob[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, err := ReadSegments(recPath)
			if err != nil {
				// A truncated TAIL is indistinguishable from a crash
				// mid-append and must not be an error — only mid-file
				// corruption is.
				t.Fatalf("ReadSegments on truncated tail errored: %v", err)
			}
			if len(recovered) != intact {
				t.Fatalf("recovered %d locations, want exactly the %d intact-prefix ones", len(recovered), intact)
			}
			for _, l := range recovered {
				if torn[l] {
					t.Fatalf("torn-frame location 0x%x surfaced in recovery", l)
				}
			}

			// Online: truncate the live spill file (the crash) and run
			// free-time invalidation through it.
			before := lg.Stats().Snapshot()
			if before.ColdReadErrors != 0 {
				t.Fatalf("fixture started with ColdReadErrors=%d", before.ColdReadErrors)
			}
			if err := os.Truncate(cs.Path, int64(cut)); err != nil {
				t.Fatal(err)
			}
			lg.Invalidate(meta, as)
			snap := lg.Stats().Snapshot()
			if snap.ColdReadErrors == 0 {
				t.Fatal("unreadable segment did not increment ColdReadErrors")
			}
			invalidated, tornInvalidated := 0, 0
			for _, loc := range locs {
				w, _ := as.LoadWord(loc)
				if w&InvalidBit == 0 {
					continue
				}
				invalidated++
				if torn[loc] {
					tornInvalidated++
				}
			}
			if tornInvalidated != 0 {
				t.Fatalf("%d torn-frame entries surfaced in invalidation", tornInvalidated)
			}
			if invalidated == 0 {
				t.Fatal("invalidation lost the intact tiers along with the torn frame")
			}
			// Fail closed means fail SCOPED: everything outside the torn
			// frame is still invalidated (hot table + intact segments).
			if want := len(locs) - len(last.locs); invalidated != want {
				t.Fatalf("invalidated %d locations, want %d (all but the torn frame)", invalidated, want)
			}
		})
	}
}

// TestColdKillDurability: what a spill has stored in the mapping is in the
// page cache, so a worker SIGKILLed without Close leaves it in the file. A
// re-exec'd helper spills without end and reports every location of each
// segment once it is published; it is killed mid-stream, and ReadSegments
// over the file it left must return every location reported.
func TestColdKillDurability(t *testing.T) {
	const dirEnv = "DANGSAN_COLD_KILL_DIR"
	if dir := os.Getenv(dirEnv); dir != "" {
		cfg := tieredConfig(t)
		cfg.ColdDir = dir
		cfg.Audit = false
		lg := NewLogger(cfg)
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
		tl := lg.Register(meta, vmem.GlobalsBase, 0)
		var last *coldSeg
		for i := uint64(1); ; i++ {
			lg.RegisterWith(tl, vmem.GlobalsBase+i%(vmem.GlobalsSize/8)*8, 0)
			cs := tl.cold.Load()
			if cs == nil || cs.segs.Load() == last {
				continue
			}
			last = cs.segs.Load()
			line := "seg"
			if err := lg.cold.Load().forEach(last, nil, func(loc uint64) { line += fmt.Sprintf(" %x", loc) }); err != nil {
				line = "error " + err.Error()
			}
			fmt.Println(line)
		}
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestColdKillDurability$")
	cmd.Env = append(os.Environ(), dirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Past the first mapping too: 45 adjacent locations fold into a segment
	// of 136 bytes, so after 10,000 of them the helper has grown its file.
	const killAfter = 10000
	reported := map[uint64]bool{}
	segs := 0
	r := bufio.NewReader(stdout)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break // EOF; a line cut short by the kill was never reported
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "seg" {
			t.Errorf("helper: %s", line)
			continue
		}
		for _, f := range fields[1:] {
			loc, err := strconv.ParseUint(f, 16, 64)
			if err != nil {
				t.Fatalf("helper line %q: %v", line, err)
			}
			reported[loc] = true
		}
		if segs++; segs == killAfter {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cmd.Wait()
	if segs < killAfter {
		t.Fatalf("helper reported %d segments, want at least %d", segs, killAfter)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "dangsan-coldlog-*.seg"))
	if len(files) != 1 {
		t.Fatalf("spill files left behind: %v", files)
	}
	if st, err := os.Stat(files[0]); err != nil || st.Size() <= coldMapBytes {
		t.Fatalf("spill file never grew past its first mapping: %v %v", st, err)
	}
	recovered, err := ReadSegments(files[0])
	if err != nil {
		t.Fatalf("ReadSegments after SIGKILL: %v", err)
	}
	got := make(map[uint64]bool, len(recovered))
	for _, loc := range recovered {
		got[loc] = true
	}
	for loc := range reported {
		if !got[loc] {
			t.Fatalf("location 0x%x was published before the kill and is not in the file (%d reported, %d recovered)", loc, len(reported), len(got))
		}
	}
	t.Logf("%d segments reported, %d locations recovered", segs, len(got))
}
