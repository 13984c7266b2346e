type t = {
  mutable node : int array;
  mutable key : int array;
  mutable mem : bool array;
  mutable len : int;
}

let create n =
  { node = Array.make n 0; key = Array.make n 0; mem = Array.make n false;
    len = 0 }

let ensure h n =
  if Array.length h.mem < n then begin
    let cap = Stdlib.max n (2 * Array.length h.mem) in
    h.node <- Array.make cap 0;
    h.key <- Array.make cap 0;
    h.mem <- Array.make cap false;
    h.len <- 0
  end

let is_empty h = h.len = 0

let push h x key =
  if not h.mem.(x) then begin
    h.mem.(x) <- true;
    let node = h.node and keys = h.key in
    let i = ref h.len in
    h.len <- h.len + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if keys.(p) > key then begin
        node.(!i) <- node.(p);
        keys.(!i) <- keys.(p);
        i := p;
        true
      end
      else false
    do
      ()
    done;
    node.(!i) <- x;
    keys.(!i) <- key
  end

let pop h =
  let node = h.node and keys = h.key in
  let x = node.(0) in
  h.mem.(x) <- false;
  let len = h.len - 1 in
  h.len <- len;
  let last = node.(len) and k = keys.(len) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= len then sifting := false
    else begin
      let c = if l + 1 < len && keys.(l + 1) < keys.(l) then l + 1 else l in
      if keys.(c) < k then begin
        node.(!i) <- node.(c);
        keys.(!i) <- keys.(c);
        i := c
      end
      else sifting := false
    end
  done;
  node.(!i) <- last;
  keys.(!i) <- k;
  x

let clear h =
  for i = 0 to h.len - 1 do
    h.mem.(h.node.(i)) <- false
  done;
  h.len <- 0
