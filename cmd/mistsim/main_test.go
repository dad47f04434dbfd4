package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main instead of the tests, so a
// test can drive the command as a user would: its own arguments, exit
// status and stderr.
const runMainEnv = "MISTSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadSpecExitsOne checks that a GPU count no mesh holds and an
// unknown platform each end the command with status 1 and one error
// line, not a panic.
func TestBadSpecExitsOne(t *testing.T) {
	for _, args := range [][]string{{"-gpus", "12"}, {"-platform", "h100"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1", args, err)
		}
		out := stderr.String()
		if strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "mistsim: ") {
			t.Errorf("%v: stderr %q, want one error line", args, out)
		}
		if strings.Contains(out, "panic:") || strings.Contains(out, "goroutine") {
			t.Errorf("%v: stderr has a stack trace: %q", args, out)
		}
	}
}
