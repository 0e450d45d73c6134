// Symmetry-soundness battery: the conformance obligations behind
// explore.Config.Symmetry. An unsound canonicalization fails silently — it
// merges states whose futures differ and reports "property holds" for trees
// it never explored — so every spec declaring the capability is put through:
//
//   - capability honesty: SupportsSymmetry ⇔ sessions declare Symmetric (and
//     implies SupportsDedup), with typed rejections (explore.ErrNoSymmetry /
//     explore.ErrSymmetryNeedsDedup) at both the spec.Config and engine
//     layers for every invalid request shape;
//   - orbit-canonical outcome preservation: on every exhausted cell the
//     orbit-canonicalized outcome set (per-process outcomes with the
//     session's Canon applied, sorted, plus the orbit-canonical harness
//     digest at the leaf) is identical with symmetry on and off — symmetry
//     may only drop permutation-redundant representatives, never behaviors;
//   - reduction direction: symmetry+dedup never explores more runs than
//     dedup alone, and the composition with pruning preserves the
//     prune+dedup canonical outcome set likewise;
//   - canonical-fingerprint determinism: two symmetric explorations visit
//     the identical state graph (runs, states, hits), and the parallel
//     explorer reaches the same verdict;
//   - permutation invariance: sampled run scripts replayed under explicit
//     process permutations (PermuteScript) yield the same checker verdict
//     and the same orbit-canonical leaf signature as the raw script.
//
// The byte-identical-counterexample obligation lives in symmetry_test.go
// (it needs a planted violation, which no registered spec has).

package spectest

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// permutationSamples bounds the walk-sampled scripts the permutation battery
// replays per cell (each script replays once raw plus once per permutation).
const permutationSamples = 25

// symmetryCapability checks the declaration side of the symmetry contract on
// one resolved cell: flag/session agreement, the Dedup implication, and the
// typed loud failures for every invalid request shape.
func symmetryCapability(t *testing.T, s spec.Spec, p spec.Params, base explore.Config) {
	t.Helper()
	if declared := s.New(p).Symmetric; declared != s.SupportsSymmetry() {
		t.Fatalf("spec %q: SupportsSymmetry=%v but session Symmetric=%v",
			s.Name(), s.SupportsSymmetry(), declared)
	}
	if s.SupportsSymmetry() && !s.SupportsDedup() {
		t.Fatalf("spec %q: SupportsSymmetry without SupportsDedup (the reduction acts through the visited store)", s.Name())
	}
	symCfg := base
	symCfg.Dedup = true
	symCfg.Symmetry = true
	if !s.SupportsSymmetry() {
		if _, err := spec.Config(s, p, symCfg); !errors.Is(err, explore.ErrNoSymmetry) ||
			!strings.Contains(err.Error(), s.Name()) {
			t.Errorf("spec.Config symmetry on %q: err = %v, want ErrNoSymmetry tagged with the name", s.Name(), err)
		}
		if _, err := explore.ExploreSession(s.New(p), symCfg); !errors.Is(err, explore.ErrNoSymmetry) {
			t.Errorf("engine symmetry on %q: err = %v, want ErrNoSymmetry", s.Name(), err)
		}
		return
	}
	// Symmetry without Dedup is rejected even on capable specs: the pairing
	// is part of the contract, not a default.
	noDedup := base
	noDedup.Symmetry = true
	if _, err := spec.Config(s, p, noDedup); !errors.Is(err, explore.ErrSymmetryNeedsDedup) {
		t.Errorf("spec.Config symmetry-without-dedup on %q: err = %v, want ErrSymmetryNeedsDedup", s.Name(), err)
	}
	if _, err := explore.ExploreSession(s.New(p), noDedup); !errors.Is(err, explore.ErrSymmetryNeedsDedup) {
		t.Errorf("engine symmetry-without-dedup on %q: err = %v, want ErrSymmetryNeedsDedup", s.Name(), err)
	}
}

// symmetryCell runs the dynamic symmetry obligations on one exhausted cell
// of a symmetry-capable spec.
func symmetryCell(t *testing.T, s spec.Spec, p spec.Params, base explore.Config, opt Options) {
	t.Helper()
	dedupCfg := base
	dedupCfg.Dedup = true
	symCfg := dedupCfg
	symCfg.Symmetry = true

	// Orbit-canonical outcome preservation, and the reduction direction.
	want, stDedup := canonCoverage(t, s, p, dedupCfg)
	got, stSym := canonCoverage(t, s, p, symCfg)
	if stSym.Runs > stDedup.Runs {
		t.Errorf("symmetry explored MORE runs than dedup alone: %d vs %d", stSym.Runs, stDedup.Runs)
	}
	compareCoverage(t, "symmetry", want, got)

	// Canonical-fingerprint determinism: two symmetric walks visit the
	// identical state graph.
	d1 := mustExplore(t, s, p, symCfg, false)
	d2 := mustExplore(t, s, p, symCfg, false)
	if d1.Runs != d2.Runs || d1.Dedup.States != d2.Dedup.States || d1.Dedup.Hits != d2.Dedup.Hits {
		t.Errorf("symmetric fingerprint determinism: {runs:%d states:%d hits:%d} vs {runs:%d states:%d hits:%d}",
			d1.Runs, d1.Dedup.States, d1.Dedup.Hits, d2.Runs, d2.Dedup.States, d2.Dedup.Hits)
	}

	// The parallel explorer accepts the same configuration and reaches the
	// same verdict (its run count is timing-dependent under a shared store).
	if par := mustExplore(t, s, p, symCfg, true); !par.Exhausted {
		t.Errorf("parallel symmetric exploration did not exhaust: %+v", par)
	}

	// Composition with partial-order reduction preserves the prune+dedup
	// canonical outcome set.
	pruneDedup := dedupCfg
	pruneDedup.Prune = true
	pruneSym := symCfg
	pruneSym.Prune = true
	wantP, stPD := canonCoverage(t, s, p, pruneDedup)
	gotP, stPS := canonCoverage(t, s, p, pruneSym)
	if stPS.Runs > stPD.Runs {
		t.Errorf("prune+symmetry explored MORE runs than prune+dedup: %d vs %d", stPS.Runs, stPD.Runs)
	}
	compareCoverage(t, "prune+symmetry", wantP, gotP)

	if opt.Samples > 0 {
		permutationBattery(t, s, p, opt)
	}
}

// canonCoverage explores one configuration sequentially, recording the
// orbit-canonical signature of every leaf. Symmetric and plain explorations
// of one cell are only comparable through orbit-canonical signatures: with
// symmetry on, all but one representative of each leaf orbit is cut, so the
// RAW outcome sets genuinely differ (e.g. "everyone adopted process 0's
// value" survives while its permutation images are cut).
func canonCoverage(t *testing.T, s spec.Spec, p spec.Params, cfg explore.Config) (map[string]bool, explore.Stats) {
	t.Helper()
	sess := s.New(p)
	inner := sess.Check
	sig := canonSigner(sess)
	cover := make(map[string]bool)
	sess.Check = func(res *sched.Result) error {
		if err := inner(res); err != nil {
			return err
		}
		cover[sig(res)] = true
		return nil
	}
	st, err := explore.ExploreSession(sess, cfg)
	if err != nil || !st.Exhausted {
		t.Fatalf("spec %q %v cfg{prune:%v dedup:%v symmetry:%v}: err=%v exhausted=%v",
			s.Name(), p, cfg.Prune, cfg.Dedup, cfg.Symmetry, err, st.Exhausted)
	}
	return cover, st
}

// canonSigner returns the orbit-canonical leaf-signature function of a
// session: the per-process outcomes with the session's Canon applied to
// decided values, sorted, plus — when the session fingerprints — the harness
// digest taken through a fresh orbit-canonical FP, so leaves equal up to
// process permutation sign identically.
func canonSigner(sess explore.Session) func(*sched.Result) string {
	canon := sess.Canon
	leafFP := sess.Fingerprint
	return func(res *sched.Result) string {
		sig := make([]string, 0, len(res.Outcomes))
		for _, o := range res.Outcomes {
			v := o.Value
			if canon != nil && v != nil {
				v = canon(v)
			}
			sig = append(sig, fmt.Sprintf("%v/%v/%v", o.Status, o.Decided, v))
		}
		sort.Strings(sig)
		key := strings.Join(sig, ";")
		if leafFP != nil {
			h := sched.NewOrbitFP(len(res.Outcomes), canon)
			leafFP(h)
			d := h.Sum()
			key = fmt.Sprintf("%s#%016x%016x", key, d.Hi, d.Lo)
		}
		return key
	}
}

// permutationBattery draws walk-sampled run scripts of the cell and replays
// each under explicit process permutations: the checker's verdict and the
// orbit-canonical leaf signature must match the raw replay's. This is the
// direct witness that the spec's declared symmetry is real — it exercises
// the actual bodies under renamed schedules, not just the hash.
func permutationBattery(t *testing.T, s spec.Spec, p spec.Params, opt Options) {
	t.Helper()
	cfg := sampleConfig(s, p, opt)
	if cfg.Samples > permutationSamples {
		cfg.Samples = permutationSamples
	}
	var scripts [][]string
	cfg.OnSample = func(i int, script []string) {
		scripts = append(scripts, append([]string(nil), script...))
	}
	if _, err := sampleSession(s.New(p), sample.StrategyWalk, cfg); err != nil {
		t.Fatalf("permutation battery sampling %q: %v", s.Name(), err)
	}
	sess := s.New(p)
	sig := canonSigner(sess)
	maxSteps := p[spec.ParamSteps]
	for si, script := range scripts {
		res, err := explore.ReplayScript(sess, script, maxSteps)
		if err != nil {
			t.Fatalf("raw replay of sample %d failed: %v\nscript: %v", si, err, script)
		}
		rawVerdict := sess.Check(res)
		rawSig := sig(res)
		for pi, perm := range procPerms(len(res.Outcomes)) {
			permuted, err := PermuteScript(script, perm)
			if err != nil {
				t.Fatalf("permuting sample %d under %v: %v", si, perm, err)
			}
			pres, err := explore.ReplayScript(sess, permuted, maxSteps)
			if err != nil {
				t.Fatalf("permuted replay of sample %d under %v failed: %v\nraw:      %v\npermuted: %v",
					si, perm, err, script, permuted)
			}
			pVerdict := sess.Check(pres)
			if (rawVerdict == nil) != (pVerdict == nil) {
				t.Errorf("verdict not permutation-invariant on sample %d perm %d: raw=%v permuted=%v",
					si, pi, rawVerdict, pVerdict)
			}
			if pSig := sig(pres); pSig != rawSig {
				t.Errorf("orbit-canonical signature not permutation-invariant on sample %d perm %d:\nraw:      %s\npermuted: %s",
					si, pi, rawSig, pSig)
			}
		}
	}
}

// procPerms returns the non-identity permutations the battery applies: one
// rotation and (for n >= 3, where it differs from the rotation) one
// transposition — together they generate the full symmetric group, so any
// asymmetry they both miss would need to be invariant under everything they
// generate, i.e. under all of S_n.
func procPerms(n int) [][]sched.ProcID {
	if n < 2 {
		return nil
	}
	rot := make([]sched.ProcID, n)
	for i := range rot {
		rot[i] = sched.ProcID((i + 1) % n)
	}
	if n == 2 {
		return [][]sched.ProcID{rot}
	}
	swap := make([]sched.ProcID, n)
	for i := range swap {
		swap[i] = sched.ProcID(i)
	}
	swap[0], swap[1] = 1, 0
	return [][]sched.ProcID{rot, swap}
}

// PermuteScript applies a process permutation pi (process i becomes
// pi[i]) to a decision script in the engines' replay syntax: decision
// targets are renamed, and per-process cell indices inside step labels
// ("obj[i].op" — the InternIndexed form, where cell i belongs to process i)
// are mapped through pi likewise. Labels without a cell index pass through
// unchanged. pi must be a permutation of 0..len(pi)-1 covering every process
// the script names. Entries parse and render through explore.ParseChoice and
// Choice.String, so every label, permuted ones included, must be interned.
func PermuteScript(script []string, pi []sched.ProcID) ([]string, error) {
	out := make([]string, len(script))
	for i, line := range script {
		c, err := explore.ParseChoice(line)
		if err != nil {
			return nil, err
		}
		if int(c.Proc) >= len(pi) {
			return nil, fmt.Errorf("spectest: script names process %d, permutation covers 0..%d", c.Proc, len(pi)-1)
		}
		label := permuteLabel(c.Label.String(), pi)
		l, ok := sched.LookupLabel(label)
		if !ok {
			return nil, fmt.Errorf("spectest: %q permutes to the unknown label %q", line, label)
		}
		c.Proc, c.Label = pi[c.Proc], l
		out[i] = c.String()
	}
	return out, nil
}

// permuteLabel maps the bracketed cell index of an indexed step label
// through pi; labels without one (or with an out-of-range index, e.g. an
// object larger than the process count) pass through unchanged.
func permuteLabel(label string, pi []sched.ProcID) string {
	o := strings.IndexByte(label, '[')
	cl := strings.IndexByte(label, ']')
	if o < 0 || cl < o+2 {
		return label
	}
	idx, err := strconv.Atoi(label[o+1 : cl])
	if err != nil || idx < 0 || idx >= len(pi) {
		return label
	}
	return label[:o+1] + strconv.Itoa(int(pi[idx])) + label[cl:]
}
