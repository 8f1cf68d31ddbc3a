package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestHelpExitsZero(t *testing.T) {
	// flag.ExitOnError used to os.Exit(0) on -help; the testable FlagSet
	// must preserve that contract.
	code, _, errOut := runCLI(t, "-help")
	if code != 0 {
		t.Fatalf("-help exit code = %d, want 0", code)
	}
	if !strings.Contains(errOut, "surveys (-survey") {
		t.Errorf("-help did not print the survey listing: %q", errOut)
	}
}

func TestRejectsContradictoryWindow(t *testing.T) {
	// -from > -until describes an empty window; the old CLI silently ran a
	// survey that could match nothing.
	code, _, errOut := runCLI(t, "-gen", "ba", "-size", "2000", "-survey", "windowed", "-from", "100", "-until", "50")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut, "contradictory window") {
		t.Errorf("stderr does not explain the contradiction: %q", errOut)
	}
}

func TestRejectsNegativePlanFlags(t *testing.T) {
	// Timestamps are unsigned; -1 is the only legal "off" sentinel. Other
	// negatives used to be silently treated as "off".
	for _, flagName := range []string{"-delta", "-from", "-until"} {
		code, _, errOut := runCLI(t, "-gen", "ba", "-size", "2000", "-survey", "count", flagName, "-5")
		if code != 2 {
			t.Fatalf("%s -5: exit code = %d, want 2", flagName, code)
		}
		if !strings.Contains(errOut, flagName) || !strings.Contains(errOut, "-1 to disable") {
			t.Errorf("%s -5: stderr unhelpful: %q", flagName, errOut)
		}
	}
	if code, _, _ := runCLI(t, "-gen", "ba", "-size", "2000", "-survey", "count", "-stream", "-3"); code != 2 {
		t.Fatalf("-stream -3: exit code = %d, want 2", code)
	}
	if code, _, errOut := runCLI(t, "-gen", "ba", "-size", "2000", "-survey", "count", "-window", "10"); code != 2 || !strings.Contains(errOut, "-window needs -stream") {
		t.Fatalf("-window without -stream: code=%d stderr=%q", code, errOut)
	}
}

func TestRejectsExplicitZeroStream(t *testing.T) {
	// An explicit -stream 0 used to silently fall through to the one-shot
	// path; asking for streaming replay with no batches is an error.
	code, _, errOut := runCLI(t, "-gen", "ba", "-size", "2000", "-survey", "count", "-stream", "0")
	if code != 2 {
		t.Fatalf("-stream 0: exit code = %d, want 2 (stderr %q)", code, errOut)
	}
	if !strings.Contains(errOut, "positive batch count") {
		t.Errorf("-stream 0: stderr unhelpful: %q", errOut)
	}
	// The untouched default still means "off" and runs one-shot.
	if code, out, errOut := runCLI(t, "-gen", "ba", "-size", "2000", "-survey", "count"); code != 0 || !strings.Contains(out, "triangles:") {
		t.Fatalf("default (no -stream): code=%d out=%q stderr=%q", code, out, errOut)
	}
}

func TestFusedPlanFlagsThroughEngine(t *testing.T) {
	// Plan flags must restrict every listed survey on the engine path.
	code, out, errOut := runCLI(t,
		"-gen", "reddit", "-size", "3000", "-ranks", "2",
		"-survey", "windowed,wclosure", "-delta", "50000")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut)
	}
	for _, want := range []string{"triangles:", "pushdown:", "closing time distribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

func TestFusedSurveyRuns(t *testing.T) {
	code, out, errOut := runCLI(t, "-gen", "ba", "-size", "2000", "-ranks", "2", "-survey", "count,localcounts")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut)
	}
	for _, want := range []string{"triangles:", "fused surveys (one traversal): count, localcounts", "top triangle-participating vertices:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestStreamModeRuns drives runStream through ingests and expiries: the
// 20 000-tick window retires edges on the 3 000-edge input, so Advance and
// the stock analyses' Unobserve run, and the chronological replay must
// still never rebuild.
func TestStreamModeRuns(t *testing.T) {
	code, out, errOut := runCLI(t,
		"-gen", "reddit", "-size", "3000", "-ranks", "2",
		"-survey", "count,closure,localcounts,labels", "-stream", "3", "-window", "20000")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut)
	}
	for _, want := range []string{"streaming", "batch 0:", "batch 2:", "live triangles after 3 batches", "closing time distribution",
		"top triangle-participating vertices:", "max edge label/timestamp distribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "epoch rebuild") {
		t.Errorf("chronological replay should not rebuild:\n%s", out)
	}
	m := regexp.MustCompile(`([\d,]+) retired, (\d+) rebuilds\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("stdout has no retired/rebuilds summary:\n%s", out)
	}
	if m[1] == "0" {
		t.Errorf("the window retired no edge, so no expiry ran:\n%s", out)
	}
	if m[2] != "0" {
		t.Errorf("chronological replay rebuilt %s times:\n%s", m[2], out)
	}
}

func TestStreamModeRejectsNonStreamableSurvey(t *testing.T) {
	code, _, errOut := runCLI(t, "-gen", "ba", "-size", "2000", "-survey", "cc", "-stream", "2")
	if code != 2 || !strings.Contains(errOut, "no streaming counterpart") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}
