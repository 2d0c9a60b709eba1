# expect: safe
system pendulum-safe-0
var th : real [-2, 2]
var w : real [-2, 2]
init th >= 0.3 and th <= 0.35 and w >= 0.4 and w <= 0.45
trans th' = th + 0.2 * w and w' = w + 0.2 * (-1 * sin(th) - 0.8 * w)
prop th <= 1.2
