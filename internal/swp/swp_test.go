package swp_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/swp"
)

// sampleStream builds a byte stream of collector wire frames: a hello
// followed by sample batches, deterministic from seed.
func sampleStream(seed int64, frames, perFrame int) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := collector.AppendHello(nil, "exporter-under-test")
	for f := 0; f < frames; f++ {
		batch := make([]collector.Sample, perFrame)
		for i := range batch {
			batch[i] = collector.Sample{
				Key: packet.FlowKey{
					Src:     packet.Addr(rng.Uint32()),
					Dst:     packet.Addr(rng.Uint32()),
					SrcPort: uint16(rng.Intn(1 << 16)),
					DstPort: uint16(rng.Intn(1 << 16)),
				},
				Est:  time.Duration(rng.Int63n(int64(time.Second))),
				True: time.Duration(rng.Int63n(int64(time.Second))),
			}
		}
		buf = collector.AppendSamples(buf, batch)
	}
	return buf
}

// ingestStream decodes frames from r into a fresh collector and returns its
// snapshot.
func ingestStream(t *testing.T, r io.Reader) []collector.FlowAgg {
	t.Helper()
	c := collector.New(collector.Config{Shards: 2})
	defer c.Close()
	fr := collector.NewFrameReader(r, 0)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("FrameReader.Next: %v", err)
		}
		switch f.Type {
		case collector.MsgSamples:
			c.Ingest(f.Samples)
		case collector.MsgRecords:
			c.IngestRecords(f.Records)
		}
	}
	return c.Snapshot()
}

// TestLossyDeliveryBitIdenticalCollector is the tentpole property: the same
// frame stream, shipped once directly and once through swp over a SimNet
// dropping/duplicating/reordering/delaying ≥5% of segments in both
// directions, must land the collector in bit-identical state.
func TestLossyDeliveryBitIdenticalCollector(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			stream := sampleStream(seed, 200, 8)
			want := ingestStream(t, bytes.NewReader(stream))

			a, b := swp.NewSimNet(swp.ImpairConfig{
				Seed:    seed,
				Drop:    0.05,
				Dup:     0.05,
				Reorder: 0.05,
				Delay:   200 * time.Microsecond,
			})
			cfg := swp.Config{
				Window:     32,
				MaxPayload: 512,
				RTO:        5 * time.Millisecond,
				MaxRTO:     50 * time.Millisecond,
				MaxRetries: 64,
			}
			snd := swp.NewSender(a, cfg)
			rcv := swp.NewReceiver(b, cfg)

			writeErr := make(chan error, 1)
			go func() {
				// Irregular write sizes so segment boundaries never align
				// with frame boundaries.
				rng := rand.New(rand.NewSource(seed ^ 0x5757))
				rest := stream
				for len(rest) > 0 {
					n := 1 + rng.Intn(900)
					if n > len(rest) {
						n = len(rest)
					}
					if _, err := snd.Write(rest[:n]); err != nil {
						writeErr <- err
						return
					}
					rest = rest[n:]
				}
				writeErr <- snd.Close()
			}()

			got := ingestStream(t, rcv)
			if err := <-writeErr; err != nil {
				t.Fatalf("sender: %v", err)
			}
			if err := rcv.Err(); err != nil {
				t.Fatalf("receiver: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("collector state diverged under loss: %d flows direct, %d flows via swp",
					len(want), len(got))
			}

			ss, rs := snd.Stats(), rcv.Stats()
			if ss.Retransmits == 0 {
				t.Error("lossy run had zero retransmits — impairment not exercised")
			}
			if rs.Duplicates == 0 {
				t.Error("lossy run delivered zero duplicate segments — dedup not exercised")
			}
			if rs.OutOfOrder == 0 || rs.Gaps == 0 {
				t.Errorf("lossy run buffered %d out-of-order segments across %d gaps — reordering not exercised",
					rs.OutOfOrder, rs.Gaps)
			}
			if rs.Bytes != uint64(len(stream)) {
				t.Errorf("delivered %d bytes, want %d", rs.Bytes, len(stream))
			}
		})
	}
}

// TestLosslessTransferNoRetransmits checks the happy path costs nothing:
// over a clean SimNet every byte arrives in one transmission.
func TestLosslessTransferNoRetransmits(t *testing.T) {
	stream := sampleStream(3, 50, 4)
	a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 3})
	cfg := swp.Config{MaxPayload: 256}
	snd := swp.NewSender(a, cfg)
	rcv := swp.NewReceiver(b, cfg)

	writeErr := make(chan error, 1)
	go func() {
		_, err := snd.Write(stream)
		if err == nil {
			err = snd.Close()
		}
		writeErr <- err
	}()
	got, err := io.ReadAll(rcv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if !bytes.Equal(got, stream) {
		t.Fatalf("delivered %d bytes differ from %d sent", len(got), len(stream))
	}
	if ss := snd.Stats(); ss.Retransmits != 0 || ss.Timeouts != 0 {
		t.Errorf("lossless run retransmitted: %+v", ss)
	}
	if rs := rcv.Stats(); rs.Duplicates != 0 || rs.OutOfOrder != 0 {
		t.Errorf("lossless run saw impairment: %+v", rs)
	}
}

// TestStreamConnOverSocket runs the full sender/receiver pair over a real
// byte-stream connection (net.Pipe), the framing used against rlird.
func TestStreamConnOverSocket(t *testing.T) {
	cs, ss := net.Pipe()
	stream := sampleStream(9, 40, 6)
	cfg := swp.Config{MaxPayload: 300}
	snd := swp.NewSender(swp.NewStreamConn(cs), cfg)
	rcv := swp.NewReceiver(swp.NewStreamConn(ss), cfg)

	writeErr := make(chan error, 1)
	go func() {
		_, err := snd.Write(stream)
		if err == nil {
			err = snd.Close()
		}
		writeErr <- err
	}()
	got, err := io.ReadAll(rcv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if !bytes.Equal(got, stream) {
		t.Fatalf("delivered %d bytes differ from %d sent", len(got), len(stream))
	}
}
