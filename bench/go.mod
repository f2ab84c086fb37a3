module paxq/bench

go 1.24

require paxq v0.0.0

replace paxq => ../
