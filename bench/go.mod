module tensordimm/bench

go 1.21

require tensordimm v0.0.0

replace tensordimm => ../
