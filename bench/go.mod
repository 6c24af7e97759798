module fsjoin/bench

go 1.22

require fsjoin v0.0.0

replace fsjoin => ../
