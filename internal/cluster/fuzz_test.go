package cluster

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// FuzzDecodeGossip throws arbitrary bytes at the gossip wire decoder. The
// endpoint crosses trust boundaries (every member POSTs /v1/gossip to every
// other member), so the property is two-layered: decode never panics, and
// anything decode accepts is fully usable — it re-encodes and re-decodes
// cleanly, and a live agent can apply it (HandleMessage) without panicking
// and answers with a message that is itself wire-valid.
func FuzzDecodeGossip(f *testing.F) {
	seedMsg := func(m GossipMsg) []byte {
		blob, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	target := Member{ID: "s2", Addr: "127.0.0.1:3", Role: RoleShard}
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "ping",
		From: Member{ID: "s0", Addr: "127.0.0.1:1", Role: RoleShard}, Epoch: 3,
		Updates: []Update{{Member: Member{ID: "s1", Addr: "127.0.0.1:2", Role: RoleShard, State: StateSuspect, Incarnation: 2}, Epoch: 2}}}))
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "ping-req",
		From: Member{ID: "s0", Addr: "127.0.0.1:1", Role: RoleShard}, Target: &target, Epoch: 1}))
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "join",
		From: Member{ID: "joiner", Addr: "127.0.0.1:9", Role: RoleShard}}))
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "ack", Ack: true, Sync: true,
		From: Member{ID: "router", Addr: "127.0.0.1:4", Role: RoleRouter}, Epoch: 99}))
	// Rumors about the receiving agent itself exercise the refutation path.
	f.Add([]byte(`{"v":1,"type":"ping","from":{"id":"x","addr":"a:1","role":"shard"},"updates":[{"id":"fz","addr":"b:2","role":"shard","inc":7,"state":2,"epoch":5}],"epoch":5}`))
	f.Add([]byte(`{"v":1,"type":"ping-req","from":{"id":"x","addr":"a:1","role":"shard"}}`)) // no target
	f.Add([]byte(`{"v":2,"type":"ping","from":{"id":"x","addr":"a:1","role":"shard"}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeGossip(data)
		if err != nil {
			return
		}
		// Accepted ⇒ re-encodable and still accepted.
		again, err := json.Marshal(msg)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if _, err := DecodeGossip(again); err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		// Accepted ⇒ appliable: a fresh agent (with a transport that always
		// fails, so ping-req relays go nowhere) handles it without panicking
		// and replies with a wire-valid message.
		a, err := NewAgent(Member{ID: "fz", Addr: "127.0.0.1:1", Role: RoleShard},
			GossipConfig{Transport: deadTransport{}})
		if err != nil {
			t.Fatal(err)
		}
		reply := a.HandleMessage(msg)
		if reply == nil {
			t.Fatal("HandleMessage returned no reply")
		}
		blob, err := json.Marshal(reply)
		if err != nil {
			t.Fatalf("reply marshal: %v", err)
		}
		if _, err := DecodeGossip(blob); err != nil {
			t.Fatalf("agent produced a wire-invalid reply: %v", err)
		}
	})
}

// deadTransport fails every exchange (the fuzz agent must not dial out).
type deadTransport struct{}

func (deadTransport) Exchange(string, *GossipMsg, time.Duration) (*GossipMsg, error) {
	return nil, errors.New("dead transport")
}
