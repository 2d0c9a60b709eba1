# expect: safe
system poly-safe-2
var x : real [0, 10]
init x >= 0.6000000000000001 and x <= 0.7000000000000001
trans x' = x + 0.2 * (1 * x - 0.0625 * x^3)
prop x <= 5.6
