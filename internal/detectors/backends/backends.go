// Package backends is the one table of the detector backends the harnesses
// compare: the paper's four systems (the uninstrumented baseline, DangSan,
// DangNULL, FreeSentry) and the two checked-dereference backends (xTag,
// CAMP). Every name-to-detector mapping — the bench experiments, the
// differential matrix, the chaos stages and the command-line tools — goes
// through Kind and New.
package backends

import (
	"fmt"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/camp"
	"dangsan/internal/detectors/dangnull"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/detectors/freesentry"
	"dangsan/internal/detectors/xtag"
)

// Kind names a backend; the string is the detector's Name().
type Kind string

const (
	Baseline   Kind = "baseline"
	DangSan    Kind = "dangsan"
	DangNULL   Kind = "dangnull"
	FreeSentry Kind = "freesentry"
	XTag       Kind = "xtag"
	CAMP       Kind = "camp"
)

// All returns every backend in presentation order: the paper's four systems
// first, then the checked-dereference pair.
func All() []Kind { return []Kind{Baseline, DangSan, DangNULL, FreeSentry, XTag, CAMP} }

// Paper returns the four systems the paper's figures compare, a prefix of
// All.
func Paper() []Kind { return All()[:4] }

// ThreadSafe reports whether the backend may run a multi-threaded program.
// FreeSentry's tracking structures are deliberately unsynchronized (see the
// freesentry package comment), so it runs single-threaded only, as in the
// paper's Fig. 10.
func (k Kind) ThreadSafe() bool { return k != FreeSentry }

// Every backend but the baseline loses coverage fail-open and reports it
// the same way.
var _ = []detectors.CoverageLoss{
	(*dangsan.Detector)(nil),
	(*dangnull.Detector)(nil),
	(*freesentry.Detector)(nil),
	(*xtag.Detector)(nil),
	(*camp.Detector)(nil),
}

// New builds a fresh detector of the given kind. o configures DangSan in
// full; the other backends take its metadata budget
// (o.Config.MaxMetadataBytes) and fault plane.
func New(kind Kind, o dangsan.Options) (detectors.Detector, error) {
	budget := detectors.BudgetOptions{MaxMetadataBytes: o.Config.MaxMetadataBytes, Faults: o.Faults}
	switch kind {
	case Baseline:
		return detectors.None{}, nil
	case DangSan:
		return dangsan.NewWithOptions(o), nil
	case DangNULL:
		return dangnull.NewWithOptions(budget), nil
	case FreeSentry:
		return freesentry.NewWithOptions(budget), nil
	case XTag:
		return xtag.NewWithOptions(budget), nil
	case CAMP:
		return camp.NewWithOptions(budget), nil
	}
	return nil, fmt.Errorf("backends: unknown detector %q", kind)
}
