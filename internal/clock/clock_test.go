package clock

import (
	"sync"
	"testing"
	"time"
)

func TestFakeConcurrentReaders(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	f := NewFake(start)
	const steps = 1000
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := f.Now()
			for i := 0; i < steps; i++ {
				now := f.Now()
				if now.Before(last) {
					t.Errorf("Now went backwards: %v after %v", now, last)
					return
				}
				last = now
			}
		}()
	}
	for i := 0; i < steps; i++ {
		f.Advance(time.Second)
	}
	wg.Wait()
	if got, want := f.Now(), start.Add(steps*time.Second); !got.Equal(want) {
		t.Errorf("after %d one-second advances Now = %v, want %v", steps, got, want)
	}
}

func TestFakeTickerNeverFires(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tick, stop := f.Ticker(time.Nanosecond)
	defer stop()
	f.Advance(time.Hour)
	select {
	case <-tick:
		t.Fatal("a Fake ticker fired on its own")
	default:
	}
}

func TestSystemTickerStopReleases(t *testing.T) {
	before := System.Now()
	tick, stop := System.Ticker(time.Millisecond)
	at := <-tick
	if at.Before(before) {
		t.Errorf("tick at %v precedes Now() %v taken before the ticker started", at, before)
	}
	stop()
	// A stopped ticker delivers nothing more: drain the one tick that
	// may already sit in the channel's buffer, then the channel must
	// stay empty for many periods.
	select {
	case <-tick:
	default:
	}
	select {
	case <-tick:
		t.Fatal("ticker fired after stop")
	case <-time.After(20 * time.Millisecond):
	}
}
