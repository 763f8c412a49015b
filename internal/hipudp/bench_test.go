package hipudp

import (
	"io"
	"testing"
	"time"
)

// BenchmarkPumpBulk streams 16 KiB writes over loopback from one stack to
// another, which reads and discards them: the transmit path from Write
// through pumpLocked's seal into a pooled frame and the sender, and the
// receive path from recvmmsg through onFrames to Read. With -benchmem it
// must read 0 B/op once the pool is warm.
func BenchmarkPumpBulk(b *testing.B) {
	a, r := pair(b)
	l, err := r.Listen(9)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan int64)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- 0
			return
		}
		n, _ := io.Copy(io.Discard, struct{ io.Reader }{c})
		done <- n
	}()
	c, err := a.Dial(idB.HIT(), 9, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 16<<10)
	write := func(n int) {
		for range n {
			if _, err := c.Write(msg); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm up: slow start, the stream buffers' growth and the pool's fill
	// stay out of the measurement.
	const warm = 64
	write(warm)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	write(b.N)
	b.StopTimer()
	c.Close()
	if n, want := <-done, int64(warm+b.N)*int64(len(msg)); n != want {
		b.Fatalf("reader got %d bytes, want %d", n, want)
	}
}
