// Package cmdtest exercises every command-line tool under cmd/, and the
// example program under examples/, as a real subprocess: every malformed
// -faultplan/-bufpolicy/flag combination must exit non-zero with a
// one-line actionable message on stderr, and the checkpoint surface must
// round-trip bit-identically through the actual binaries — including the
// pmserve session daemon, whose drain/restore cycle is covered by the
// opt-in TestServeSmoke.
package cmdtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	pmckpt "pipemem/internal/ckpt"
)

var binDir string

// TestMain builds the tools and the example programs once into a temp dir;
// every test then execs the real binaries.
func TestMain(m *testing.M) {
	if _, err := exec.LookPath("go"); err != nil {
		fmt.Fprintln(os.Stderr, "cmdtest: go toolchain not found; skipping")
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "pipemem-cmdtest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmdtest:", err)
		os.Exit(1)
	}
	binDir = dir
	// The kill/restore soak and the serve smoke want the tools themselves
	// race-instrumented, not just the test harness.
	buildArgs := []string{"build", "-o", dir}
	if os.Getenv("PIPEMEM_CKPT_SOAK") == "1" || os.Getenv("PIPEMEM_SERVE_SMOKE") == "1" {
		buildArgs = append(buildArgs, "-race")
	}
	build := exec.Command("go", append(buildArgs, "./cmd/...", "./examples/...")...)
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "cmdtest: build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run execs one tool and returns stdout, stderr and the exit code.
func run(t *testing.T, tool, stdin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", tool, args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// badCase is one malformed invocation: the tool must exit non-zero and
// lead stderr with a line containing wantSub.
type badCase struct {
	name    string
	tool    string
	stdin   string
	args    []string
	wantSub string
}

// badConfigCases is the ErrBadConfig audit table, one row per malformed
// invocation. Paths it needs live under dir; garbage.ckpt is expected to
// hold bytes that are not a checkpoint.
func badConfigCases(dir string) []badCase {
	ckpt := filepath.Join(dir, "x.ckpt")
	garbage := filepath.Join(dir, "garbage.ckpt")
	vcd := filepath.Join(dir, "x.vcd")
	cases := []badCase{
		// Malformed -bufpolicy rejects at flag-parse time in every tool that takes it.
		{"pmsim/bad-bufpolicy", "pmsim", "", []string{"-bufpolicy", "bogus"}, "bad policy spec"},
		{"pmexp/bad-bufpolicy", "pmexp", "", []string{"-bufpolicy", "bogus"}, "bad policy spec"},
		{"pmsim/bad-bufpolicy-param", "pmsim", "", []string{"-bufpolicy", "dt:2"}, "key=value"},

		// pmsim: fault-plan errors.
		{"pmsim/faultplan-missing-file", "pmsim", "", []string{"-faultplan", "/nonexistent/plan.txt"}, "no such file"},
		{"pmsim/faultplan-malformed", "pmsim", "@not-a-cycle mem\n", []string{"-faultplan", "-"}, "fault plan"},
		{"pmsim/faultplan-unknown-kind", "pmsim", "@5 frobnicate\n", []string{"-faultplan", "-"}, "unknown fault kind"},

		// pmsim: flag combinations.
		{"pmsim/bufpolicy-slot-arch", "pmsim", "", []string{"-arch", "voq", "-bufpolicy", "share"}, "RTL model only"},
		{"pmsim/unknown-arch", "pmsim", "", []string{"-arch", "quantum"}, "unknown architecture"},
		{"pmsim/ckpt-every-without-path", "pmsim", "", []string{"-ckpt-every", "100"}, "-checkpoint"},
		{"pmsim/checkpoint-slot-arch", "pmsim", "", []string{"-arch", "voq", "-checkpoint", ckpt}, "RTL model"},
		{"pmsim/negative-audit", "pmsim", "", []string{"-audit", "-1"}, ">= 0"},
		{"pmsim/restore-same-as-checkpoint", "pmsim", "", []string{"-restore", ckpt, "-checkpoint", ckpt}, "overwrite"},
		{"pmsim/restore-missing", "pmsim", "", []string{"-restore", "/nonexistent/run.ckpt"}, "no such file"},
		{"pmsim/restore-garbage", "pmsim", "", []string{"-restore", garbage}, "not a pipemem checkpoint"},
		{"pmsim/restore-plus-faultplan", "pmsim", "@5 mem\n", []string{"-restore", garbage, "-faultplan", "-"}, "drop -faultplan"},
		{"pmsim/restore-plus-bufpolicy", "pmsim", "", []string{"-restore", garbage, "-bufpolicy", "share"}, "drop -bufpolicy"},
		{"pmsim/restore-plus-linkprotect", "pmsim", "", []string{"-restore", garbage, "-linkprotect"}, "drop -linkprotect"},
		// pmsim: a slot-level flag the architecture does not read, or a
		// value it cannot be built with, is refused before the build.
		{"pmsim/sched-unknown", "pmsim", "", []string{"-arch", "voq", "-sched", "bogus"}, "pmsim: -sched"},
		{"pmsim/sched-not-voq", "pmsim", "", []string{"-arch", "output", "-sched", "pim"}, "pmsim: -sched"},
		{"pmsim/group-not-divisor", "pmsim", "", []string{"-arch", "block-crosspoint", "-n", "16", "-group", "5"}, "pmsim: -group"},
		{"pmsim/speedup-zero", "pmsim", "", []string{"-arch", "speedup", "-speedup", "0"}, "pmsim: -speedup"},

		// pmsim: the cycle-accurate organizations' model/config errors.
		{"pmsim/unknown-model", "pmsim", "", []string{"-arch", "rtl", "-model", "t9"}, "unknown model"},
		{"pmsim/model-n", "pmsim", "", []string{"-arch", "rtl", "-model", "t3", "-n", "16"}, "drop -n"},
		{"pmsim/model-buf", "pmsim", "", []string{"-arch", "rtl", "-model", "t3", "-buf", "64"}, "drop -buf"},
		{"pmsim/bad-ports", "pmsim", "", []string{"-arch", "rtl", "-n", "0", "-slots", "10"}, "ports"},
		{"pmsim/dual-vcs", "pmsim", "", []string{"-arch", "dual", "-n", "4", "-vcs", "3"}, "no virtual channels"},
		{"pmsim/fig5-vcd", "pmsim", "", []string{"-arch", "rtl", "-fig5", "-vcd", vcd}, "one tracer"},
		{"pmsim/fig5-slot-arch", "pmsim", "", []string{"-arch", "voq", "-fig5"}, "RTL model"},
		// pmsim: a flag the chosen organization ignores is refused.
		{"pmsim/wide-bufpolicy", "pmsim", "", []string{"-arch", "wide", "-bufpolicy", "share"}, "does not implement -bufpolicy"},
		{"pmsim/wide-vcs", "pmsim", "", []string{"-arch", "wide", "-vcs", "3"}, "does not implement -vcs"},
		{"pmsim/wide-fig5", "pmsim", "", []string{"-arch", "wide", "-fig5"}, "does not implement -fig5"},
		{"pmsim/wide-trace", "pmsim", "", []string{"-arch", "wide", "-trace", filepath.Join(dir, "t.jsonl")}, "does not implement -trace"},
		{"pmsim/prizma-vcd", "pmsim", "", []string{"-arch", "prizma", "-vcd", vcd}, "does not implement -vcd"},
		{"pmsim/prizma-store-and-forward", "pmsim", "", []string{"-arch", "prizma", "-store-and-forward"}, "does not implement -store-and-forward"},
		{"pmsim/dual-checkpoint", "pmsim", "", []string{"-arch", "dual", "-checkpoint", ckpt}, "does not implement -checkpoint"},
		{"pmsim/dual-faultplan", "pmsim", "", []string{"-arch", "dual", "-faultplan", "random"}, "does not implement -faultplan"},
		{"pmsim/dual-sweep", "pmsim", "", []string{"-arch", "dual", "-sweep"}, "does not implement -sweep"},
		{"pmsim/fabric-fig5", "pmsim", "", []string{"-fabric", "butterfly", "-fig5"}, "drop -fig5"},

		// pmsim: one arrival process per run; a full-rate one has no load
		// to set and no loads to sweep.
		{"pmsim/saturate-bursty-hot", "pmsim", "", []string{"-arch", "rtl", "-saturate", "-bursty", "8", "-hot", "0.5", "-slots", "100"}, "drop -bursty"},
		{"pmsim/bursty-hot", "pmsim", "", []string{"-arch", "rtl", "-bursty", "8", "-hot", "0.5", "-slots", "100"}, "drop -hot"},
		{"pmsim/perm-saturate", "pmsim", "", []string{"-arch", "rtl", "-perm", "-saturate"}, "drop -perm"},
		{"pmsim/saturate-load", "pmsim", "", []string{"-arch", "rtl", "-saturate", "-load", "0.1", "-slots", "100"}, "drop -load"},
		{"pmsim/perm-load", "pmsim", "", []string{"-arch", "dual", "-perm", "-load", "0.5"}, "drop -load"},
		{"pmsim/sweep-saturate", "pmsim", "", []string{"-sweep", "-arch", "output", "-n", "4", "-slots", "100", "-saturate"}, "drop -sweep"},

		// pmsim: -sweep is obeyed (slot-level archs, -arch rtl) or refused,
		// never dropped by a single-point harness.
		{"pmsim/sweep-fabric", "pmsim", "", []string{"-sweep", "-fabric", "butterfly"}, "-sweep"},
		// pmsim -fabric: a flag the chosen topology ignores is refused too.
		{"pmsim/clos-terminals", "pmsim", "", []string{"-fabric", "clos", "-terminals", "100"}, "drop -terminals"},
		{"pmsim/butterfly-middles", "pmsim", "", []string{"-fabric", "butterfly", "-middles", "3"}, "drop -middles"},
		// A size whose stage count used to overflow and never return.
		{"pmsim/fabric-terminals-overflow", "pmsim", "", []string{"-fabric", "butterfly", "-terminals", "9223372036854775807", "-radix", "2"}, "not radix^s"},
		{"pmsim/sweep-faultplan", "pmsim", "", []string{"-sweep", "-faultplan", "random"}, "-sweep"},
		{"pmsim/sweep-checkpoint", "pmsim", "", []string{"-sweep", "-arch", "rtl", "-checkpoint", ckpt}, "-sweep"},
		{"pmsim/sweep-restore", "pmsim", "", []string{"-sweep", "-restore", garbage}, "-sweep"},
		{"pmsim/sweep-metrics", "pmsim", "", []string{"-sweep", "-arch", "rtl", "-metrics"}, "-sweep"},
		{"pmsim/sweep-trace", "pmsim", "", []string{"-sweep", "-trace", filepath.Join(dir, "t.jsonl")}, "-sweep"},

		// pmsim: trace/telemetry flag group.
		{"pmsim/trace-sample-zero", "pmsim", "", []string{"-trace-sample", "0"}, ">= 1"},
		{"pmsim/trace-sample-negative", "pmsim", "", []string{"-fabric", "butterfly", "-trace-sample", "-3"}, ">= 1"},
		{"pmsim/telemetry-every-without-file", "pmsim", "", []string{"-telemetry-every", "100"}, "-telemetry"},
		{"pmsim/telemetry-without-fabric", "pmsim", "", []string{"-telemetry", "ts.jsonl"}, "-fabric"},

		// pmtrace: analyzer input validation.
		{"pmtrace/negative-top", "pmtrace", "", []string{"-top", "-1"}, ">= 0"},
		{"pmtrace/two-files", "pmtrace", "", []string{"a.jsonl", "b.jsonl"}, "one trace file"},
		{"pmtrace/missing-file", "pmtrace", "", []string{"/nonexistent/spans.jsonl"}, "no such file"},
		{"pmtrace/no-spans", "pmtrace", "{\"ev\":\"read-wave\",\"cycle\":1,\"in\":0,\"out\":1,\"addr\":2}\n",
			[]string{"-"}, "no flight spans"},

		// pmexp: unknown experiment id no longer passes silently.
		{"pmexp/unknown-only-id", "pmexp", "", []string{"-only", "E999"}, "unknown experiment id"},

		// pmserve: flag validation must fail fast, before binding a port.
		{"pmserve/bad-listen", "pmserve", "", []string{"-listen", "bad::addr::x"}, "listen"},
		{"pmserve/nonpositive-max-sessions", "pmserve", "", []string{"-max-sessions", "0"}, "positive"},
		{"pmserve/nonpositive-step-max", "pmserve", "", []string{"-step-max", "-5"}, "positive"},
		{"pmserve/nonpositive-telemetry", "pmserve", "", []string{"-telemetry-cap", "0"}, "positive"},
	}
	// pmsim -restore runs the checkpoint's own switch and traffic: a flag
	// that would describe another is refused.
	for _, f := range [][]string{{"-n", "8"}, {"-buf", "32"}, {"-load", "0.9"}, {"-saturate"}, {"-perm"}, {"-bursty", "8"},
		{"-hot", "0.5"}, {"-seed", "9"}, {"-vcs", "2"}, {"-store-and-forward"}, {"-model", "t3"}} {
		cases = append(cases, badCase{"pmsim/restore-plus" + f[0], "pmsim", "", append([]string{"-restore", garbage}, f...), "drop " + f[0]})
	}
	return cases
}

// TestBadConfigExitsNonZero runs the audit table: each row must exit
// non-zero and lead stderr with an actionable message naming the problem.
func TestBadConfigExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "garbage.ckpt"), []byte("not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range badConfigCases(dir) {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, code := run(t, c.tool, c.stdin, c.args...)
			if code == 0 {
				t.Fatalf("%s %v exited 0, want non-zero\nstderr: %s", c.tool, c.args, stderr)
			}
			first, _, _ := strings.Cut(stderr, "\n")
			if !strings.Contains(first, c.wantSub) {
				t.Fatalf("%s %v: first stderr line %q does not mention %q", c.tool, c.args, first, c.wantSub)
			}
		})
	}
}

// tools lists the directories under cmd/.
func tools(t *testing.T) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir("../../cmd")
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() {
			set[e.Name()] = true
		}
	}
	return set
}

// TestEveryToolAudited keeps the audit honest about which tools exist:
// every directory under cmd/ has at least one row in the table. (A row
// for a tool that is gone already fails TestBadConfigExitsNonZero.)
func TestEveryToolAudited(t *testing.T) {
	audited := map[string]bool{}
	for _, c := range badConfigCases(t.TempDir()) {
		audited[c.tool] = true
	}
	for tool := range tools(t) {
		if !audited[tool] {
			t.Errorf("cmd/%s has no row in badConfigCases", tool)
		}
	}
}

// liveDocs are the documents that describe the repo as it is. CHANGES.md
// and ROADMAP.md are history and may name what is gone.
var liveDocs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// TestDocsNameLiveTargets is the docs-rot guard: every make target and
// cmd/<tool> path the documentation mentions must exist. A target counts
// as mentioned when `make <target>` opens an inline code span or stands
// as a word inside a fenced block — prose that merely uses the verb is
// left alone.
func TestDocsNameLiveTargets(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(mk)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	targets := map[string]bool{}
	for _, f := range strings.Fields(string(phony[1])) {
		targets[f] = true
	}
	live := tools(t)

	inSpan := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	inFence := regexp.MustCompile(`(?:^|\s)make ([a-z][a-z0-9-]*)`)
	cmdPath := regexp.MustCompile(`\bcmd/([a-z][a-z0-9]*)`)
	for _, doc := range liveDocs {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			re := inSpan
			if fenced {
				re = inFence
			}
			for _, m := range re.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: `make %s` is not a .PHONY target of the Makefile", doc, i+1, m[1])
				}
			}
			for _, m := range cmdPath.FindAllStringSubmatch(line, -1) {
				if !live[m[1]] {
					t.Errorf("%s:%d: cmd/%s does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}

// TestDocsNameLiveTests is the docs-rot guard for test names: every
// Test…, Fuzz… and Benchmark… name the Makefile, the CI workflow or a live
// document cites must be a function of some _test.go file in the repo. A
// name ending in * stands for every function it prefixes, and must prefix
// one.
func TestDocsNameLiveTests(t *testing.T) {
	defined := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir("../..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range defined.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	for _, doc := range append([]string{"Makefile", ".github/workflows/ci.yml"}, liveDocs...) {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range cited.FindAllString(line, -1) {
				prefix, ok := strings.CutSuffix(name, "*")
				if !slices.ContainsFunc(funcs, func(f string) bool { return f == name || ok && strings.HasPrefix(f, prefix) }) {
					t.Errorf("%s:%d: names %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
}

// TestDocsNameNothingRetired is the other half of the docs-rot guard: names
// a PR deleted must not survive in the live documents. Add to the list in
// the PR that retires a name (it replaces the hand-run `git grep` PRs 13
// and 14 ended with).
func TestDocsNameNothingRetired(t *testing.T) {
	retired := []string{
		"SetOutputGate", "readFloor", // PR 14: pushed gate levels, one ready word
		"pmbench", "BENCH_1.json", // PR 13: one performance ledger
		"ringOps", "lastTx", "egress ring", // PR 15: one link side, one egress slot
		// PR 17: one multistage net — the engine's, aliased by both topologies
		// (the first name is spelled in two halves so that a grep of the Go
		// sources for it stays empty)
		"fabric" + "Net", "fabric.Run", "fabric.Result", "clos.Run", "clos.Result",
		"RunClos", "ClosNet", "ClosResult", "BadEjects", "PoolLens", "routeDigit", "midRR",
		// PR 18: one contract, one Departure, one RunResult, one plain driver
		// (driver names in two halves, as above)
		"RunDual" + "Traffic", "RunWide" + "Traffic", "RunPrizma" + "Traffic",
		"widemem.RunTraffic", "prizma.RunTraffic", "widemem.RunResult", "prizma.RunResult",
		"widemem.Departure", "prizma.Departure", "ThroughMemory", "CapacityCells",
		// PR 19: the tracer is a tap, DualSwitch has no per-stage machine
		"driveScratch", "execOp", "outMask", "outCount", "tracer-pinned", "tracer attach",
		// PR 21: one driver for fault runs — the session (names in two
		// halves, as above)
		"fault" + ".Run", "fault" + ".Options", "FaultRun" + "Options", "Run" + "Faults", "NewFault" + "Link",
		"runFault" + "Plan", "run" + "Observed", "fault harness", "-faultplan harness",
		// PR 24: one idle predicate — the fast-forward adds to the clock and
		// retires nothing
		"clearCtrl", "jump(m)",
		// One arrival process — the slot-level models draw from a one-word
		// cell stream — and X6 runs as `-only X6` (names in two halves, as
		// above)
		"New" + "Generator", "traffic." + "Generator", "pmexp -" + "fabric", "FabricScale" + "Experiment",
		// One tick engine: faults open the waves they reach, nothing else
		// runs per stage (names in two halves, as above)
		"tick" + "Exact", "force" + "Exact", "forced" + "Exact", "drop" + "Fast", "want" + "Fast", "fast" + "Mode",
		"exact" + " mode",
		// The switch owns its input rows and pmckpt v2 writes them: nothing
		// aliases a recycled cell or infers what a v1 file left out
		"lostRow", "restoreRows", "committedMask", "cutDue", "recycleDropped",
		// The observer counts events and is published at batch boundaries:
		// nothing in it runs per cycle
		"observeCycle", "obsTally",
		// The control glitch is retired: a ctrl plan line is a bad plan
		"InjectControlFault", "glitch-words", "ctrlView", "dropGlitch", "glitchN",
		// The stage bypass is retired: the switch has no spare stage and no
		// degraded mode
		"MapOutStage", "BypassThreshold", "EvBypass", "stage-bypass", "drop-bypass", "usable-cells",
		// One experiment registry: the X experiments join E1–E14, and the
		// benchmarks that re-ran experiments are gone (names in two halves,
		// as above)
		"Extension" + "Experiments",
		// Typed event counts: each model keeps its counts in plain int64
		// fields, core.Counts on the switch (names in two halves, as above)
		"stats." + "Counter", "Counters" + "()", "counter" + ".Hot",
		// One departure contract: every organization hands its departures
		// to a sink, and Run books them as the Runner does (names in two
		// halves, as above)
		"tally." + "book", "tally." + "collect",
		// pmsim runs all four organizations and the fig. 5 taps; the area
		// numbers are E10–E13's (names in two halves, as above)
		"pm" + "rtl", "pm" + "area", "-" + "tracejson", "TestPmrtl" + "TracePinned",
		// The example programs that repeated an experiment or the README
		// snippet are gone, and three became Example functions; floorplan
		// stays
		"examples/quickstart", "examples/atmswitch", "examples/multistage",
		"examples/multicast", "examples/qos", "examples/cluster",
	}
	for n := 1; n <= 14; n++ {
		retired = append(retired, fmt.Sprintf("Benchmark"+"E%d_", n))
	}
	for _, doc := range liveDocs {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range retired {
				if strings.Contains(line, name) {
					t.Errorf("%s:%d: names %q, which no longer exists", doc, i+1, name)
				}
			}
		}
	}
}

// TestFacadeNamesUsed keeps the root package's exported surface to what
// something outside it uses: every exported name pipemem.go declares must be
// referenced as pipemem.<Name> by a tool under cmd/, a program under
// examples/, an example in example_test.go or README.md — or name an
// Example<Name> or Example<Name>_<Method> function there, which go vet
// holds to an existing identifier. The package's own files and tests do not
// count: what only they use belongs in internal/*.
func TestFacadeNamesUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "../../pipemem.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declared = append(declared, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declared = append(declared, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared = append(declared, n.Name)
					}
				}
			}
		}
	}

	used := map[string]bool{}
	useFile := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "pipemem" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				if rest, ok := strings.CutPrefix(fn.Name.Name, "Example"); ok {
					used[strings.Split(rest, "_")[0]] = true
				}
			}
		}
		return nil
	}
	for _, dir := range []string{"../../cmd", "../../examples"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return useFile(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := useFile("../../example_test.go"); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\bpipemem\.([A-Z]\w*)`).FindAllSubmatch(readme, -1) {
		used[string(m[1])] = true
	}

	var unused []string
	for _, name := range declared {
		if ast.IsExported(name) && !used[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("pipemem.go exports %d of %d names that no tool, example or README recipe uses: %s",
			len(unused), len(declared), strings.Join(unused, " "))
	}
}

// TestChangelogWhole guards CHANGES.md as the only per-PR record: its
// entries run in ascending PR order, and every "(PR N" citation in
// ROADMAP.md names an entry that exists.
func TestChangelogWhole(t *testing.T) {
	log, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := os.ReadFile("../../ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^(?:- )?PR (\d+)\b`)
	have := map[int]bool{}
	last := 0
	for i, line := range strings.Split(string(log), "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var pr int
		fmt.Sscan(m[1], &pr)
		if pr < last {
			t.Errorf("CHANGES.md:%d: PR %d follows PR %d", i+1, pr, last)
		}
		last = pr
		have[pr] = true
	}
	cited := regexp.MustCompile(`\(PR (\d+)`)
	for i, line := range strings.Split(string(roadmap), "\n") {
		for _, m := range cited.FindAllStringSubmatch(line, -1) {
			var pr int
			fmt.Sscan(m[1], &pr)
			if !have[pr] {
				t.Errorf("ROADMAP.md:%d: cites PR %d, which has no CHANGES.md entry", i+1, pr)
			}
		}
	}
}

// TestPmtraceRoundTrip drives the flight-trace pipeline through the real
// binaries: pmsim -fabric writes a span trace, pmtrace reduces it, and
// the reconciliation check (Σhops + stages−1 = e2e for every completed
// flight) must pass — pmtrace exits 1 when it does not.
func TestPmtraceRoundTrip(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	_, stderr, code := run(t, "pmsim", "",
		"-fabric", "butterfly", "-terminals", "64", "-radix", "4", "-slots", "2000",
		"-load", "0.7", "-trace", spans, "-trace-sample", "9")
	if code != 0 {
		t.Fatalf("pmsim -fabric -trace failed (%d): %s", code, stderr)
	}
	out, stderr, code := run(t, "pmtrace", "", "-top", "3", spans)
	if code != 0 {
		t.Fatalf("pmtrace failed (%d): %s\n%s", code, stderr, out)
	}
	for _, want := range []string{"stages=3", "hop0", "hop2", "worst paths:", "reconciliation: all"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pmtrace output missing %q:\n%s", want, out)
		}
	}
}

// TestPmsimFig5Pinned pins, byte for byte, what pmsim's three fig. 5 taps
// write for one busy pipelined run: the -fig5 lines on stdout, the -vcd
// waveform file and the -fig5 records routed onto the -trace stream
// (interleaved with the typed wave/stall events). The tap is an observer of
// the switch, so no change to how the switch is simulated may move any of
// them. The arch rows pin the result line of the three other organizations
// on the same traffic: Run drives them, and no change to how it books a
// departure may move them either. The model row pins a Telegraphos
// prototype's result and Mb/s lines, and the last row the -trace stream of
// the same run without -fig5, which carries the typed events only.
func TestPmsimFig5Pinned(t *testing.T) {
	dir := t.TempDir()
	at := func(arch string, args ...string) []string {
		return append([]string{"-arch", arch, "-n", "4", "-buf", "16", "-load", "0.7", "-slots", "600", "-seed", "5"}, args...)
	}
	vcd, jsonl, jsonlSF := filepath.Join(dir, "w.vcd"), filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "sf.jsonl")
	events := filepath.Join(dir, "ev.jsonl")
	rows := []struct {
		name string
		args []string
		file string // pinned bytes: this file's, or stdout's when empty
		sum  uint64
		size int
	}{
		{"fig5", at("rtl", "-fig5"), "", 0x4f8c3aa8c7f8ba3b, 84910},
		{"vcd", at("rtl", "-vcd", vcd), vcd, 0x89f5f22883bbaa43, 89429},
		{"fig5-trace", at("rtl", "-trace", jsonl, "-fig5"), jsonl, 0x18d7c619d48024e5, 190131},
		// Saturation has no load to set.
		{"fig5-trace/sf-vcs-dt", []string{"-arch", "rtl", "-n", "4", "-buf", "16", "-slots", "600", "-seed", "5",
			"-trace", jsonlSF, "-fig5", "-store-and-forward", "-vcs", "2", "-bufpolicy", "dt:alpha=2", "-saturate"}, jsonlSF, 0xe70d8080621b09a, 241028},
		{"arch/dual", at("dual"), "", 0x28770624b9a91ca9, 94},
		{"arch/wide", at("wide"), "", 0xd50cfefc6711795e, 95},
		{"arch/prizma", at("prizma"), "", 0x55c7e225ad8e2a5a, 97},
		{"model/t3", []string{"-arch", "rtl", "-model", "t3", "-slots", "20000"}, "", 0x58a0478f01fc1b84, 170},
		{"events", at("rtl", "-trace", events), events, 0xf6175b52ec3e4c96, 33973},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			out, stderr, code := run(t, "pmsim", "", r.args...)
			if code != 0 {
				t.Fatalf("pmsim %v failed (%d): %s", r.args, code, stderr)
			}
			got := []byte(out)
			if r.file != "" {
				var err error
				if got, err = os.ReadFile(r.file); err != nil {
					t.Fatal(err)
				}
			}
			h := fnv.New64a()
			h.Write(got)
			if h.Sum64() != r.sum || len(got) != r.size {
				t.Fatalf("pmsim %v: %d bytes, digest %#x; pinned %d bytes, %#x", r.args, len(got), h.Sum64(), r.size, r.sum)
			}
		})
	}
}

// firstAndFaults keeps the RunResult line and the per-kind "faults:" tallies
// of a pmsim fault run: the part of its stdout that is the simulation's
// outcome rather than the report's layout.
func firstAndFaults(out string) string {
	var b strings.Builder
	for i, line := range strings.SplitAfter(out, "\n") {
		if i == 0 || strings.HasPrefix(line, "faults:") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// firstLine keeps the RunResult line.
func firstLine(out string) string { return strings.SplitAfter(out, "\n")[0] }

// TestPmsimPinned pins pmsim's single-switch stdout byte for byte: plain
// and observed RTL runs, fault plans with the auditor on (the first four
// rows, pinned before the fault harness was folded into the session and
// unmoved by it), the README / verify-skill fault recipes, a fault plan
// under each traffic flag the harness used to refuse, the refusal of a
// retired fault kind, and the label of a saturated slot-level row.
func TestPmsimPinned(t *testing.T) {
	rtl := []string{"-arch", "rtl", "-n", "8", "-buf", "256", "-load", "0.9", "-slots", "200000"}
	ecc := []string{"-faultplan", "random", "-n", "4", "-buf", "32", "-load", "0.6", "-slots", "120000", "-ecc", "-events", "2000"}
	stuck := []string{"-faultplan", "-", "-n", "2", "-buf", "8", "-load", "0.4", "-slots", "20000", "-ecc"}
	linkprotect := []string{"-faultplan", "random", "-n", "4", "-buf", "32", "-load", "0.5", "-slots", "100000", "-linkprotect"}
	short := []string{"-faultplan", "random", "-n", "4", "-buf", "32", "-slots", "2000", "-ecc"}
	const stuckPlan = "@500 stuck stage=2\n"
	audit := func(args []string) []string { return append(append([]string{}, args...), "-audit", "1000") }
	rows := []struct {
		name  string
		stdin string
		args  []string
		keep  func(string) string // nil: all of stdout
		want  string              // the kept bytes, or "" when sum/size pin them
		sum   uint64
		size  int
		// refused: the run exits 1 with nothing on stdout and this stderr.
		refused string
	}{
		{name: "rtl", args: rtl,
			want: "cycles=200298 offered=89927 delivered=89927 dropped=0 util=0.8979 cutlat=66.76 initdelay=1.8859\n"},
		{name: "rtl-metrics", args: append(append([]string{}, rtl...), "-metrics"), sum: 0xe1c31b61de6b3470, size: 6395},
		// Sparse runs: nearly every cycle is one in which neither the stream
		// nor the switch has anything to do.
		{name: "rtl-sparse-bursty", args: []string{"-arch", "rtl", "-n", "8", "-buf", "256", "-bursty", "8", "-load", "0.05", "-slots", "200000"},
			want: "cycles=200000 offered=4663 delivered=4663 dropped=0 util=0.0466 cutlat=5.80 initdelay=0.0455\n"},
		{name: "rtl-sparse", args: []string{"-arch", "rtl", "-n", "8", "-buf", "256", "-load", "0.02", "-slots", "200000"},
			want: "cycles=200004 offered=1980 delivered=1980 dropped=0 util=0.0198 cutlat=2.10 initdelay=0.0056\n"},
		{name: "ecc-audit", args: audit(ecc), keep: firstAndFaults,
			want: "cycles=120017 offered=35899 delivered=35899 dropped=0 util=0.5982 cutlat=15.05 initdelay=0.7611\n" +
				"faults: mem         applied=1654 skipped=346\n"},
		{name: "stuck-audit", stdin: stuckPlan, args: audit(stuck), keep: firstAndFaults,
			want: "cycles=20012 offered=3997 delivered=3997 dropped=0 util=0.3995 cutlat=6.90 initdelay=0.3300\n" +
				"faults: stuck       applied=1 skipped=0\n"},

		{name: "recipe/ecc", args: ecc,
			want: "cycles=120017 offered=35899 delivered=35899 dropped=0 util=0.5982 cutlat=15.05 initdelay=0.7611\n" +
				"corrupt=0 ecc-corrected=1654 ecc-uncorrectable=0 ecc-hard=0 linkfailed=0 retransmits=0\n" +
				"faults: mem         applied=1654 skipped=346\n"},
		{name: "recipe/stuck", stdin: stuckPlan, args: stuck,
			want: "cycles=20012 offered=3997 delivered=3997 dropped=0 util=0.3995 cutlat=6.90 initdelay=0.3300\n" +
				"corrupt=3902 ecc-corrected=1348 ecc-uncorrectable=2508 ecc-hard=1348 linkfailed=0 retransmits=0\n" +
				"faults: stuck       applied=1 skipped=0\n"},
		{name: "recipe/linkprotect", args: linkprotect,
			want: "cycles=100026 offered=24897 delivered=24897 dropped=0 util=0.4978 cutlat=5.02 initdelay=0.2401\n" +
				"corrupt=0 ecc-corrected=0 ecc-uncorrectable=0 ecc-hard=0 linkfailed=0 retransmits=85\n" +
				"faults: linkdrop    applied=49 skipped=63\n" +
				"faults: linkcorrupt applied=36 skipped=52\n"},
		// A saturated link never regains the time a retransmission cost it:
		// the window runs 13,048 cycles past -slots while the queues empty.
		// (Saturation has no load to set: the row is linkprotect's without
		// -load.)
		{name: "linkprotect-saturate", args: append(slices.Delete(slices.Clone(linkprotect), 6, 8), "-saturate", "-retries", "2", "-events", "6000"),
			want: "cycles=113048 offered=50000 delivered=49735 dropped=225 util=0.8799 cutlat=29.63 initdelay=1.7617\n" +
				"corrupt=0 ecc-corrected=0 ecc-uncorrectable=0 ecc-hard=0 linkfailed=40 retransmits=4862\n" +
				"faults: linkdrop    applied=2582 skipped=435\n" +
				"faults: linkcorrupt applied=2580 skipped=403\n"},

		{name: "faultplan-bursty", args: append(append([]string{}, short...), "-bursty", "8"), keep: firstLine,
			want: "cycles=2203 offered=776 delivered=678 dropped=98 util=0.6155 cutlat=84.36 initdelay=2.2109\n"},
		{name: "faultplan-hot", args: append(append([]string{}, short...), "-hot", "0.5"), keep: firstLine,
			want: "cycles=2275 offered=809 delivered=440 dropped=369 util=0.3868 cutlat=154.56 initdelay=5.7386\n"},
		{name: "faultplan-saturate", args: append(append([]string{}, short...), "-saturate"), keep: firstLine,
			want: "cycles=2158 offered=1000 delivered=965 dropped=35 util=0.8943 cutlat=62.43 initdelay=3.7337\n"},

		// The control-glitch kind is retired: a plan naming it is a bad plan,
		// not a run without its faults.
		{name: "ctrl-refused", stdin: "@50 ctrl stage=1 op=R out=0 addr=3\n",
			args:    []string{"-faultplan", "-", "-n", "4", "-load", "0.3", "-slots", "2000"},
			refused: "pmsim: fault: invalid fault plan: line 1: unknown fault kind \"ctrl\"\n"},

		// A saturated stream reads no load: the row says so rather than
		// echo -load's default.
		{name: "slot-saturate", args: []string{"-arch", "output", "-n", "4", "-slots", "2000", "-saturate"},
			want: "load=sat  output-queue   n=4   thr=0.9835 loss=5.88e-03 lat=23.37 p99=63\n"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			out, stderr, code := run(t, "pmsim", r.stdin, r.args...)
			if r.refused != "" {
				if code != 1 || out != "" || stderr != r.refused {
					t.Fatalf("pmsim %v: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", r.args, code, out, stderr, r.refused)
				}
				return
			}
			if code != 0 {
				t.Fatalf("pmsim %v exited %d: %s", r.args, code, stderr)
			}
			if r.keep != nil {
				out = r.keep(out)
			}
			if r.want != "" {
				if out != r.want {
					t.Fatalf("pmsim %v:\n got  %q\n want %q\nstderr: %s", r.args, out, r.want, stderr)
				}
				return
			}
			h := fnv.New64a()
			h.Write([]byte(out))
			if h.Sum64() != r.sum || len(out) != r.size {
				t.Fatalf("pmsim %v: %d bytes, digest %#x; pinned %d bytes, %#x", r.args, len(out), h.Sum64(), r.size, r.sum)
			}
		})
	}
}

// TestFloorplanPinned pins examples/floorplan's stdout, the §3.5 and §5
// arithmetic rescaled to a geometry, at its default flags and at the
// 16×16, 32-bit geometry the docs quote.
func TestFloorplanPinned(t *testing.T) {
	rows := []struct {
		name string
		args []string
		sum  uint64
		size int
	}{
		{"default", nil, 0x974b62d31b9fff43, 793},
		{"n16-w32", []string{"-n", "16", "-w", "32"}, 0x803abcbeae1daee9, 798},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			out, stderr, code := run(t, "floorplan", "", r.args...)
			if code != 0 {
				t.Fatalf("floorplan %v exited %d: %s", r.args, code, stderr)
			}
			h := fnv.New64a()
			h.Write([]byte(out))
			if h.Sum64() != r.sum || len(out) != r.size {
				t.Fatalf("floorplan %v: %d bytes, digest %#x; pinned %d bytes, %#x\n%s", r.args, len(out), h.Sum64(), r.size, r.sum, out)
			}
		})
	}
}

// TestPmsimCheckpointRestoreRoundTrip drives the checkpoint surface
// through the real binary: an interrupted-and-restored run must print the
// same stdout as the uninterrupted one — result line and, for a fault
// plan behind CRC links (whose queues, wires and backoffs ride in the
// file), the whole fault report.
func TestPmsimCheckpointRestoreRoundTrip(t *testing.T) {
	for _, r := range []struct {
		name string
		args []string
	}{
		{"plain", []string{"-arch", "rtl", "-n", "4", "-buf", "32", "-load", "0.8", "-slots", "4000"}},
		{"linkprotect", []string{"-faultplan", "random", "-n", "4", "-buf", "32", "-load", "0.7", "-slots", "4000", "-events", "300", "-linkprotect", "-retries", "2"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			want, stderr, code := run(t, "pmsim", "", r.args...)
			if code != 0 {
				t.Fatalf("reference run failed (%d): %s", code, stderr)
			}
			out, stderr, code := run(t, "pmsim", "", append(r.args, "-checkpoint", ckpt, "-ckpt-every", "1700", "-audit", "500", "-watchdog", "4000")...)
			if code != 0 {
				t.Fatalf("checkpointed run failed (%d): %s", code, stderr)
			}
			if out != want {
				t.Fatalf("session run diverged from plain run:\n got  %s want %s", out, want)
			}
			got, stderr, code := run(t, "pmsim", "", "-restore", ckpt)
			if code != 0 {
				t.Fatalf("restore failed (%d): %s", code, stderr)
			}
			if got != want {
				t.Fatalf("restored run diverged:\n got  %s want %s", got, want)
			}
		})
	}
}

// TestPmsimAuditChangesNothing: one plan has one answer. Whatever the plan
// and the flags, adding -audit prints the same stdout and exits the same.
func TestPmsimAuditChangesNothing(t *testing.T) {
	random := []string{"-faultplan", "random", "-n", "4", "-buf", "32", "-slots", "20000"}
	for _, r := range []struct {
		name  string
		stdin string
		args  []string
	}{
		{"unprotected", "", append(append([]string{}, random...), "-load", "0.6", "-events", "40")},
		{"ecc-bursty-dt", "", append(append([]string{}, random...), "-ecc", "-bursty", "8", "-bufpolicy", "dt:alpha=2")},
		{"ecc-hot", "", append(append([]string{}, random...), "-ecc", "-hot", "0.5")},
		// (Named for the stage bypass the stuck-bank recipe once armed.)
		{"stuck-bypass", "@500 stuck stage=2\n", []string{"-faultplan", "-", "-n", "2", "-buf", "8", "-load", "0.4", "-slots", "20000", "-ecc"}},
		{"linkprotect", "", append(append([]string{}, random...), "-load", "0.5", "-linkprotect")},
		{"linkprotect-saturate", "", append(append([]string{}, random...), "-saturate", "-linkprotect", "-retries", "1", "-events", "2000")},
		{"link-events-without-links", "@40 linkdrop in=0\n@50 linkcorrupt in=1\n@60 mem\n", []string{"-faultplan", "-", "-n", "4", "-buf", "32", "-slots", "2000"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			want, stderr, wantCode := run(t, "pmsim", r.stdin, r.args...)
			if wantCode != 0 {
				t.Fatalf("pmsim %v exited %d: %s", r.args, wantCode, stderr)
			}
			got, stderr, code := run(t, "pmsim", r.stdin, append(r.args, "-audit", "1000")...)
			if got != want || code != wantCode {
				t.Fatalf("pmsim %v: -audit 1000 changed the run (exit %d):\n got  %s want %s\nstderr: %s", r.args, code, got, want, stderr)
			}
			if !strings.Contains(want, "\ncorrupt=") || !strings.Contains(want, "\nfaults: ") {
				t.Fatalf("fault report missing from stdout:\n%s", want)
			}
		})
	}
}

// TestPmsimVerdict: the run's verdict is decided once. With a fault plan,
// corrupted deliveries are the measurement — printed, exit 0; what the
// plan cannot excuse (here a conservation violation) is exit 1, with the
// report still printed; and the same corruption in a run that carries no
// plan stays "core: N corrupted cells", exit 1. The last two runs are
// restores of the first one's checkpoint, edited: one cell added to the
// books, and the plan removed after its stuck bank has set in.
func TestPmsimVerdict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	out, stderr, code := run(t, "pmsim", "@100 stuck stage=1\n",
		"-faultplan", "-", "-n", "2", "-buf", "8", "-load", "0.6", "-slots", "4000", "-checkpoint", path, "-ckpt-every", "1500")
	if code != 0 || stderr != "" || !strings.Contains(out, "\ncorrupt=") || strings.Contains(out, "\ncorrupt=0 ") {
		t.Fatalf("fault-plan run with corrupted deliveries: exit %d, stderr %q, stdout:\n%s", code, stderr, out)
	}
	edit := func(name string, f func(*pmckpt.Checkpoint)) string {
		t.Helper()
		ck, err := pmckpt.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		f(ck)
		edited := filepath.Join(dir, name)
		if err := pmckpt.Save(edited, ck); err != nil {
			t.Fatal(err)
		}
		return edited
	}

	cooked := edit("cooked.ckpt", func(ck *pmckpt.Checkpoint) { ck.Runner.Offered++ })
	out, stderr, code = run(t, "pmsim", "", "-restore", cooked)
	if code != 1 || !strings.Contains(stderr, "conservation violated") || !strings.Contains(out, "\nfaults: stuck") {
		t.Fatalf("conservation violation under a plan: exit %d, stderr %q, stdout:\n%s", code, stderr, out)
	}

	planless := edit("planless.ckpt", func(ck *pmckpt.Checkpoint) { ck.Plan, ck.Fault = "", nil })
	out, stderr, code = run(t, "pmsim", "", "-restore", planless)
	if code != 1 || !strings.Contains(stderr, "corrupted cells") || strings.Contains(out, "corrupt=") {
		t.Fatalf("corruption without a plan: exit %d, stderr %q, stdout:\n%s", code, stderr, out)
	}
}

// TestPmsimWatchdogQuiet: a healthy run under a tight watchdog must pass
// untouched. (Genuinely wedging the switch needs a programmatic output
// gate, which the CLI deliberately does not expose; the trip path is
// covered in internal/ckpt.)
func TestPmsimWatchdogQuiet(t *testing.T) {
	out, stderr, code := run(t, "pmsim", "",
		"-arch", "rtl", "-n", "4", "-buf", "32", "-load", "0.7", "-slots", "2000", "-watchdog", "200")
	if code != 0 {
		t.Fatalf("healthy run tripped the watchdog (%d): %s\n%s", code, stderr, out)
	}
}

// TestCheckpointKillRestoreSoak is the crash-consistency soak: a
// checkpointing pmsim is SIGKILLed mid-run — at several offsets past its
// first auto-checkpoint — and each time the -restore run must reproduce
// the uninterrupted run's output byte for byte. The kill can land inside
// an in-flight Save, so this also exercises the temp-file+rename
// atomicity: a visible checkpoint is always loadable.
//
// It runs real multi-second simulations, so it is opt-in via
// PIPEMEM_CKPT_SOAK=1 (make ckpt-soak, which also builds the tools with
// -race).
// startServe launches the real pmserve binary on an ephemeral port with
// the given checkpoint dir, scrapes the base URL from its listening line,
// and returns the command, the URL, and a wait-for-stderr-tail function
// (call it only after cmd.Wait has returned).
func startServe(t *testing.T, ckptDir string) (*exec.Cmd, string, func() string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "pmserve"),
		"-listen", "127.0.0.1:0", "-ckpt-dir", ckptDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "pmserve: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("pmserve never printed its listening line")
	}
	var tail bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			tail.WriteString(sc.Text() + "\n")
		}
	}()
	return cmd, base, func() string { <-done; return tail.String() }
}

// api issues one request against a running pmserve and returns the body,
// failing unless the status code matches.
func api(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d\nbody: %s", method, url, resp.StatusCode, want, raw)
	}
	return raw
}

// finalResult decodes GET /sessions/{id}/result and asserts the run is
// finished, returning the raw RunResult JSON for byte comparison.
func finalResult(t *testing.T, raw []byte) []byte {
	t.Helper()
	var res struct {
		State   string          `json:"state"`
		Partial bool            `json:"partial"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result body: %v\n%s", err, raw)
	}
	if res.State != "done" || res.Partial {
		t.Fatalf("run not finished: state=%q partial=%v", res.State, res.Partial)
	}
	return res.Result
}

// TestServeSmoke drives the serve→drain→restore cycle through the real
// binary: a session is stepped, free-run, and paused over HTTP; SIGTERM
// drains it to a checkpoint; a fresh pmserve restores the file and the
// finished RunResult must match an uninterrupted served run byte for
// byte. Opt-in via PIPEMEM_SERVE_SMOKE=1 (make serve-smoke), which also
// builds the tools with -race.
func TestServeSmoke(t *testing.T) {
	if os.Getenv("PIPEMEM_SERVE_SMOKE") != "1" {
		t.Skip("serve smoke is opt-in: set PIPEMEM_SERVE_SMOKE=1 (make serve-smoke)")
	}
	dir := t.TempDir()
	cfg := `{"name":%q,"ports":4,"buf":32,"cycles":300000,"load":0.85,"seed":7,"policy":"dt:alpha=2"}`

	cmd, base, tail := startServe(t, dir)

	// Reference: the same spec run to completion without interruption. The
	// step overshoots the 300000-cycle injection window because the run
	// only finishes after its drain phase empties the buffer.
	api(t, "POST", base+"/sessions", fmt.Sprintf(cfg, "ref"), 201)
	api(t, "POST", base+"/sessions/ref/step?cycles=400000", "", 200)
	want := finalResult(t, api(t, "GET", base+"/sessions/ref/result", "", 200))

	// The session under test: advance an odd prefix, exercise the free-run
	// goroutine, pause at a batch boundary, then SIGTERM the server.
	api(t, "POST", base+"/sessions", fmt.Sprintf(cfg, "smoke"), 201)
	api(t, "POST", base+"/sessions/smoke/step?cycles=1234", "", 200)
	api(t, "POST", base+"/sessions/smoke/run", "", 200)
	api(t, "POST", base+"/sessions/smoke/pause", "", 200)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pmserve did not drain cleanly: %v\nstderr: %s", err, tail())
	}
	if out := tail(); !strings.Contains(out, "drained") || !strings.Contains(out, "smoke.ckpt") {
		t.Fatalf("drain did not report the checkpoint:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "smoke.ckpt")); err != nil {
		t.Fatalf("drained checkpoint missing: %v", err)
	}

	// Restore into a fresh server and finish; the done run must reproduce
	// the reference RunResult exactly.
	cmd2, base2, tail2 := startServe(t, dir)
	api(t, "POST", base2+"/sessions", `{"name":"smoke","restore":"smoke.ckpt"}`, 201)
	api(t, "POST", base2+"/sessions/smoke/step?cycles=400000", "", 200)
	got := finalResult(t, api(t, "GET", base2+"/sessions/smoke/result", "", 200))
	if !bytes.Equal(got, want) {
		t.Fatalf("restored run diverged from uninterrupted run:\n got  %s\nwant %s", got, want)
	}
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("second pmserve did not stop cleanly: %v\nstderr: %s", err, tail2())
	}
}

func TestCheckpointKillRestoreSoak(t *testing.T) {
	if os.Getenv("PIPEMEM_CKPT_SOAK") != "1" {
		t.Skip("kill/restore soak is opt-in: set PIPEMEM_CKPT_SOAK=1 (make ckpt-soak)")
	}
	args := []string{"-arch", "rtl", "-n", "4", "-buf", "64", "-load", "0.9",
		"-slots", "1500000", "-bufpolicy", "dt:alpha=2"}
	want, stderr, code := run(t, "pmsim", "", args...)
	if code != 0 {
		t.Fatalf("reference run failed (%d): %s", code, stderr)
	}

	for round, delay := range []time.Duration{0, 150 * time.Millisecond, 400 * time.Millisecond} {
		t.Run(fmt.Sprintf("kill-after-%v", delay), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), fmt.Sprintf("soak-%d.ckpt", round))
			cmd := exec.Command(filepath.Join(binDir, "pmsim"),
				append(args, "-checkpoint", ckpt, "-ckpt-every", "20000", "-audit", "50000")...)
			var out, errb bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errb
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				if _, err := os.Stat(ckpt); err == nil {
					break
				}
				if time.Now().After(deadline) {
					_ = cmd.Process.Kill()
					_ = cmd.Wait()
					t.Fatalf("no checkpoint appeared within 60s\nstderr: %s", errb.String())
				}
				time.Sleep(2 * time.Millisecond)
			}
			time.Sleep(delay)
			_ = cmd.Process.Kill() // SIGKILL: no chance to flush or clean up
			_ = cmd.Wait()

			got, rstderr, rcode := run(t, "pmsim", "", "-restore", ckpt)
			if rcode != 0 {
				t.Fatalf("restore after kill failed (%d): %s", rcode, rstderr)
			}
			if got != want {
				t.Fatalf("restored run diverged from uninterrupted run:\n got  %swant %s", got, want)
			}
		})
	}
}
