module github.com/netmeasure/rlir/bench

go 1.24

require github.com/netmeasure/rlir v0.0.0

replace github.com/netmeasure/rlir => ../
