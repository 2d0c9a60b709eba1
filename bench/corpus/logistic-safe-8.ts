# expect: safe
system logistic-safe-8
var x : real [0, 1]
init x >= 0.15000000000000002 and x <= 0.17
trans x' = 2.2 * x * (1 - x)
prop x <= 0.7000000000000001
