module hipcloud/bench

go 1.22

require hipcloud v0.0.0

replace hipcloud => ../
