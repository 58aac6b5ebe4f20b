package tracepropfix

import (
	"net/http"
	"sync"
)

// The analyzer sees a call wherever the statement walk evaluates it,
// including the less common expression positions below: a range
// statement's key, a select case's assignment target and a mutex
// receiver (plain and deferred).

type shard struct{ mu sync.Mutex }

func slot(*http.Request, error) int { return 0 }

func pick(*http.Request, error) *shard { return &shard{} }

// RangeKeyBad builds a raw request in a range key expression.
func RangeKeyBad(xs []int) {
	var m [1]int
	for m[slot(http.NewRequest(http.MethodGet, "http://a", nil))] = range xs { // want `bypasses the outbound-request helper`
	}
}

// SelectTargetBad builds a raw request in a select case's target.
func SelectTargetBad(ch chan int) {
	var m [1]int
	select {
	case m[slot(http.NewRequest(http.MethodGet, "http://b", nil))] = <-ch: // want `bypasses the outbound-request helper`
	}
}

// MutexReceiverBad builds raw requests in Lock and deferred Unlock
// receivers.
func MutexReceiverBad() {
	pick(http.NewRequest(http.MethodGet, "http://c", nil)).mu.Lock()         // want `bypasses the outbound-request helper`
	defer pick(http.NewRequest(http.MethodGet, "http://d", nil)).mu.Unlock() // want `bypasses the outbound-request helper`
}
