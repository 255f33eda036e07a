package wire

// replayMutationWant is what Replay reported for each row of
// replayMutations at commit 148345d, the last whose Replay rendered the
// captured and the replayed stream to strings and compared those. It is
// a recording of that implementation: do not refresh it from the code
// under test (re-record, if ever needed, from a checkout of 148345d).
var replayMutationWant = map[string]Report{
	"send hex nibble flipped": {Node: 0, Sends: 27, Events: 15, Recoveries: 0, Expedited: 0, Divergences: []Divergence{
		{8, "send at=378180977 data=01000500000400000008f2a24f92952100", "send at=378180977 data=01000500010400000008f2a24f92952100"},
	}},
	"send hex upper-cased": {Node: 0, Sends: 27, Events: 15, Recoveries: 0, Expedited: 0, Divergences: []Divergence{
		{0, "send at=21597796 data=01030000010200C8B9CC140000", "send at=21597796 data=01030000010200c8b9cc140000"},
	}},
	"send at_ns +1": {Node: 0, Sends: 27, Events: 15, Recoveries: 0, Expedited: 0, Divergences: []Divergence{
		{0, "send at=21597797 data=01030000010200c8b9cc140000", "send at=21597796 data=01030000010200c8b9cc140000"},
	}},
	"obs kind": {Node: 3, Sends: 13, Events: 19, Recoveries: 2, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=loss-detected host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs host": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=4 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs source": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=3 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs seq": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=0 seq=3 round=0 exp=false own=1 resched=0 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs round": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=1 exp=false own=1 resched=0 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs expedited": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 2, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=true own=1 resched=0 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs own_requests": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=2 resched=0 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs reschedules": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=1 req=3 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs requestor": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=-1 rep=0", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs replier": {Node: 3, Sends: 13, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{14, "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=4", "obs at=409230734 kind=recovered host=3 source=0 seq=2 round=0 exp=false own=1 resched=0 req=3 rep=0"},
	}},
	"obs without event": {Node: 4, Sends: 11, Events: 15, Recoveries: 2, Expedited: 1, Divergences: []Divergence{
		{6, "obs at=375591902 <nil>", "obs at=375591902 kind=loss-detected host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
	}},
	"send and obs kinds swapped": {Node: 4, Sends: 11, Events: 15, Recoveries: 2, Expedited: 1, Divergences: []Divergence{
		{4, "obs at=283204645 <nil>", "send at=283204645 data=01030208010208caf08a8e020000"},
		{5, "send at=283204645 data=", "obs at=283204645 kind=session host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
	}},
	"one send deleted": {Node: 4, Sends: 10, Events: 15, Recoveries: 2, Expedited: 1, Divergences: []Divergence{
		{20, "obs at=523204645 kind=session host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "send at=523204645 data=01030808010208cae0fbf20301001400"},
		{21, "send at=643204645 data=01030908010208ca98b4e50401001600", "obs at=523204645 kind=session host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{22, "obs at=643204645 kind=session host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "send at=643204645 data=01030908010208ca98b4e50401001600"},
		{23, "send at=763204645 data=01030a08010208cad0ecd70501001600", "obs at=643204645 kind=session host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{24, "obs at=763204645 kind=session host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "send at=763204645 data=01030a08010208cad0ecd70501001600"},
		{25, "", "obs at=763204645 kind=session host=4 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
	}},
	"one record appended": {Node: 3, Sends: 14, Events: 19, Recoveries: 3, Expedited: 1, Divergences: []Divergence{
		{32, "send at=840000000 data=00", ""},
	}},
	"25 records shifted": {Node: 0, Sends: 27, Events: 15, Recoveries: 0, Expedited: 0, Divergences: []Divergence{
		{0, "send at=21597795 data=01030000010200c8b9cc140000", "send at=21597796 data=01030000010200c8b9cc140000"},
		{1, "obs at=21597795 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=21597796 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{2, "send at=141597795 data=01030100010200c8f18487010000", "send at=141597796 data=01030100010200c8f18487010000"},
		{3, "obs at=141597795 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=141597796 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{4, "send at=261597795 data=01030200010200c8a9bdf9010000", "send at=261597796 data=01030200010200c8a9bdf9010000"},
		{5, "obs at=261597795 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=261597796 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{6, "send at=359999999 data=0100030001010000", "send at=360000000 data=0100030001010000"},
		{7, "send at=374999999 data=0100040001010002", "send at=375000000 data=0100040001010002"},
		{8, "send at=378180976 data=01000500010400000008f2a24f92952100", "send at=378180977 data=01000500010400000008f2a24f92952100"},
		{9, "obs at=378180976 kind=reply host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=378180977 kind=reply host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{10, "send at=381597795 data=01030600010200c8e1f5eb0201000200", "send at=381597796 data=01030600010200c8e1f5eb0201000200"},
		{11, "obs at=381597795 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=381597796 kind=session host=0 source=0 seq=0 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{12, "send at=389999999 data=0100070001010004", "send at=390000000 data=0100070001010004"},
		{13, "send at=404999999 data=0100080001010006", "send at=405000000 data=0100080001010006"},
		{14, "send at=407686148 data=01000900010400020006a4b337acef4100", "send at=407686149 data=01000900010400020006a4b337acef4100"},
		{15, "obs at=407686148 kind=reply host=0 source=0 seq=1 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=407686149 kind=reply host=0 source=0 seq=1 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{16, "send at=408919606 data=01000a00010400040006a4b337acef4100", "send at=408919607 data=01000a00010400040006a4b337acef4100"},
		{17, "obs at=408919606 kind=reply host=0 source=0 seq=2 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=408919607 kind=reply host=0 source=0 seq=2 round=0 exp=false own=0 resched=0 req=0 rep=0"},
		{18, "send at=411216719 data=01000b00010400020006a4b337acef4100", "send at=411216720 data=01000b00010400020006a4b337acef4100"},
		{19, "obs at=411216719 kind=reply host=0 source=0 seq=1 round=0 exp=false own=0 resched=0 req=0 rep=0", "obs at=411216720 kind=reply host=0 source=0 seq=1 round=0 exp=false own=0 resched=0 req=0 rep=0"},
	}},
}
