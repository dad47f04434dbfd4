package store

import (
	"fmt"
	"strings"
	"testing"
)

// TestKeyBytes pins Fingerprint.Key byte for byte: the key names ring
// ownership and the stored file (fileName hashes it), so a drifted byte
// re-shards the ring and orphans every record on disk. Each row is
// checked against its literal and against the fmt rendering the key was
// first defined by.
func TestKeyBytes(t *testing.T) {
	for _, c := range []struct {
		f    Fingerprint
		want string
	}{
		{Fingerprint{"gpt3-1.3b", "l4", 2, 8, 2048, true, "mist"}, "gpt3-1.3b|l4|2|8|2048|true|mist"},
		{Fingerprint{"gpt3-1.3b", "L4", 2, 8, 512, false, "DeepSpeed"}, "gpt3-1.3b|l4|2|8|512|false|deepspeed"},
		{Fingerprint{"Llama-7B", "A100", 4096, 65536, 65536, true, "ACESO"}, "Llama-7B|a100|4096|65536|65536|true|aceso"},
		{Fingerprint{"falcon-1.3b", "l4", -2, 0, -7, false, "3d"}, "falcon-1.3b|l4|-2|0|-7|false|3d"},
		{Fingerprint{}, "||0|0|0|false|"},
		{Fingerprint{"m|x", "Ünï", 1, 1, 1, true, "Mixed\xffCase"}, "m|x|ünï|1|1|1|true|mixed�case"},
	} {
		got := c.f.Key()
		if got != c.want {
			t.Errorf("%+v: Key() = %q, want %q", c.f, got, c.want)
		}
		f := c.f
		ref := fmt.Sprintf("%s|%s|%d|%d|%d|%t|%s",
			f.Model, strings.ToLower(f.Platform), f.GPUs, f.Batch, f.Seq, f.Flash, strings.ToLower(f.Space))
		if got != ref {
			t.Errorf("%+v: Key() = %q, fmt rendering %q", c.f, got, ref)
		}
	}
}
