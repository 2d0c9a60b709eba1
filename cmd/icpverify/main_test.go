package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"icpic3/internal/engine"
	"icpic3/internal/harness"
	"icpic3/internal/runner"
	"icpic3/internal/service"
)

const (
	decaySrc = `system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`
	counterSrc = `system counter
var x : real [0, 100]
init x <= 0
trans x' = x + 1
prop x <= 5
`
	hardSrc = `system hard
var x : real [0, 1000000]
var y : real [0, 1000000]
init x <= 1 and y <= 1
trans x' = x + y * y / 1000 and y' = y + x * x / 1000
prop x + y <= 999999
`
)

// model writes src to a temporary model file and returns its path.
func model(t *testing.T, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "m.ts")
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	decay, counter, hard := model(t, decaySrc), model(t, counterSrc), model(t, hardSrc)
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stdout+stderr
	}{
		{"safe", []string{decay}, 0, "[ic3] decay: safe"},
		{"unsafe", []string{counter}, 1, "[ic3] counter: unsafe"},
		{"unknown", []string{"-timeout", "1ms", hard}, 2, "[ic3] hard: unknown"},
		{"portfolio", []string{"-engine", "portfolio", decay}, 0, "decided by"},
		{"all", []string{"-engine", "all", counter}, 1, "[kind] counter: unsafe"},
		{"label", []string{"-engine", "bmc-icp", counter}, 1, "[bmc] counter: unsafe"},
		{"help", []string{"-h"}, 0, "-engine"},
		{"usage", nil, 3, "usage: icpverify"},
		{"bad flag", []string{"-no-such-flag", decay}, 3, "no-such-flag"},
		{"missing file", []string{filepath.Join(t.TempDir(), "none.ts")}, 3, "read:"},
		{"parse", []string{model(t, "system broken\nvar x : real [0, 1]\n")}, 3, "parse:"},
		{"unknown engine", []string{"-engine", "sat", decay}, 3, `unknown engine "sat"`},
		{"unknown gen", []string{"-gen", "core+shrink", decay}, 3, `unknown generalization mode "core+shrink"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(tc.args...)
			if code != tc.code || !strings.Contains(stdout+stderr, tc.want) {
				t.Errorf("exit %d, want %d with %q\nstdout:\n%s\nstderr:\n%s", code, tc.code, tc.want, stdout, stderr)
			}
		})
	}
}

// TestGenSpellings runs every accepted -gen spelling; the unknown one is
// in TestExitCodes.
func TestGenSpellings(t *testing.T) {
	decay := model(t, decaySrc)
	for _, g := range []string{"none", "core", "core+widen", "widen"} {
		if code, stdout, stderr := run("-gen", g, decay); code != 0 {
			t.Errorf("-gen %s: exit %d\n%s%s", g, code, stdout, stderr)
		}
	}
}

func TestCertifyFlag(t *testing.T) {
	decay, counter := model(t, decaySrc), model(t, counterSrc)
	code, stdout, _ := run("-certify", decay)
	if code != 0 || !strings.Contains(stdout, "[ic3] safe verdict independently certified") {
		t.Errorf("safe: exit %d\n%s", code, stdout)
	}
	code, stdout, _ = run("-certify", "-engine", "bmc", counter)
	if code != 1 || !strings.Contains(stdout, "[bmc] unsafe verdict independently certified") {
		t.Errorf("unsafe: exit %d\n%s", code, stdout)
	}
}

// TestCertifyDemotes arms a corrupted certificate: the verdict is
// demoted to unknown (exit 2) with the note the service also emits.
func TestCertifyDemotes(t *testing.T) {
	defer engine.InjectFault("decay", engine.FaultBadCert)()
	code, stdout, _ := run("-certify", model(t, decaySrc))
	if code != 2 ||
		!strings.Contains(stdout, "[ic3] CERTIFICATION FAILED, demoting safe to unknown") ||
		!strings.Contains(stdout, "[ic3] note: CERTIFICATION FAILED: safe verdict withdrawn: ") {
		t.Errorf("exit %d\n%s", code, stdout)
	}
}

// TestEngineNameParity checks that the icpverify -engine help, the
// names the service accepts and the harness lineup all come from the
// one engine table.
func TestEngineNameParity(t *testing.T) {
	_, _, help := run("-h")
	want := "engine: " + strings.Join(runner.Names(), " | ") + " | all"
	if !strings.Contains(help, want) {
		t.Errorf("help lacks %q:\n%s", want, help)
	}

	var labels []string
	for _, e := range runner.Members() {
		labels = append(labels, e.Label)
	}
	if !reflect.DeepEqual(harness.EngineNames(), labels) {
		t.Errorf("harness.EngineNames() = %v, want %v", harness.EngineNames(), labels)
	}

	svc := service.New(service.Config{Workers: 1, SkipCertify: true})
	defer svc.Shutdown(context.Background())
	for _, name := range runner.Names() {
		st, err := svc.Submit(service.Request{Source: decaySrc, Engine: name})
		if err != nil || st.Engine != name {
			t.Errorf("service rejects %q: %v (engine %q)", name, err, st.Engine)
		}
	}
	if _, err := svc.Submit(service.Request{Source: decaySrc, Engine: "sat"}); err == nil ||
		!strings.Contains(err.Error(), strings.Join(runner.Names(), " | ")) {
		t.Errorf("service accepts unknown engine: %v", err)
	}
}
